"""Naimi-Trehel distributed mutual exclusion (paper reference [20]).

M. Trehel, M. Naimi, "An improvement of the log(n) distributed algorithm
for mutual exclusion", ICDCS 1987.  The second related-work algorithm the
paper surveys.

Path-compression token algorithm: each node keeps

* ``last`` — its *probable owner* (where to send a request; updated to the
  newest requester on every request seen, compressing the chain);
* ``next`` — the successor to hand the token to on release;
* ``has_token`` / ``requesting``.

A request is forwarded along the probable-owner chain until it reaches the
current tail; amortized O(log N) messages per acquire.  Under heavy
contention the token travels directly requester-to-requester — exactly the
one-message handoff the MCS lock achieves, but implemented with two-sided
forwarding instead of remote atomics.
"""

from __future__ import annotations

from typing import Optional

from .token_base import TokenLockBase

__all__ = ["NaimiTrehelLock"]


class NaimiTrehelLock(TokenLockBase):
    """Naimi-Trehel with the classic last/next pointer pair."""

    kind = "naimi"

    def __init__(self, ctx, home_rank: int, name: str = "naimi"):
        super().__init__(ctx, home_rank, name)
        #: Probable owner; initially everyone points at the token's home.
        self.last: int = home_rank
        self.next: Optional[int] = None
        self.has_token: bool = ctx.rank == home_rank
        self.requesting = False
        self.in_cs = False

    # -- daemon ----------------------------------------------------------------------

    def _daemon_loop(self):
        me = self.ctx.rank
        while True:
            msg = yield from self._recv()
            if msg.kind == "local_request":
                self.requesting = True
                if self.last == me:
                    # We are the tail; if we also hold the idle token, enter.
                    if self.has_token and not self.in_cs:
                        self.in_cs = True
                        self._grant_local()
                    # else: token will come to us via next of the holder.
                else:
                    yield from self._send(
                        self.last, "request", payload=(me, self._view_epoch)
                    )
                    self.last = me
            elif msg.kind == "request":
                requester, epoch = msg.payload
                if epoch < self._view_epoch:
                    # Sent before a crash reconfiguration: the requester
                    # re-issues under the new view, so drop the stale copy.
                    continue
                if self.last == me:
                    # We are the current tail of the chain.
                    if self.requesting or self.in_cs:
                        # Token will pass through us; remember the successor.
                        self.next = requester
                    elif self.has_token:
                        # Idle token: hand it straight over.
                        self.has_token = False
                        yield from self._send(
                            requester, "token", payload=self._view_epoch
                        )
                    else:
                        # Tail without token and without interest can only
                        # happen transiently; queue as successor.
                        self.next = requester
                else:
                    # Forward along the probable-owner chain (compressing).
                    yield from self._send(
                        self.last, "request", payload=(requester, epoch)
                    )
                self.last = requester
            elif msg.kind == "token":
                if (msg.payload or 0) < self._token_epoch_floor:
                    # A crash reconfiguration regenerated the token while
                    # this copy was stalled in the fabric; accepting it
                    # would create a second holder.
                    self.stats.bump("stale_tokens_dropped")
                    continue
                self.has_token = True
                self.in_cs = True
                self._grant_local()
            elif msg.kind == "local_release":
                self._leave_cs()
                if self.next is not None:
                    successor, self.next = self.next, None
                    self.has_token = False
                    yield from self._send(
                        successor, "token", payload=self._view_epoch
                    )
            elif msg.kind == "view_change":
                yield from self._apply_view_change(msg.payload)
            else:  # pragma: no cover - protocol bug
                raise ValueError(f"naimi: unknown message {msg!r}")

    # -- crash recovery ----------------------------------------------------------

    token_message = "token"

    def _holds_token(self) -> bool:
        return self.has_token

    def _wants_token(self) -> bool:
        return self.requesting

    def _leave_cs(self) -> None:
        self.in_cs = False
        self.requesting = False

    def _apply_view_change(self, info):
        """Crash reconfiguration injected by the membership service.

        Every survivor resets its probable-owner chain to point at the
        designated holder (regenerating the token there if it died with
        the crashed rank) and re-issues its outstanding request under the
        new epoch; the normal request handling then rebuilds the
        ``next``-chain in the order the re-requests arrive.
        """
        me = self.ctx.rank
        self._view_epoch = info["epoch"]
        new_holder = info["holder"]
        self.stats.bump("view_changes")
        # Drop the successor pointer wholesale — keeping a pre-crash
        # ``next`` while survivors re-request builds two inconsistent
        # chains (the release would feed the stale chain and strand the
        # holder's own next request).  The epoch-tagged re-requests below
        # rebuild the entire chain in arrival order.
        self.next = None
        if info["token_lost"]:
            self.has_token = me == new_holder
            # The regenerated token supersedes any copy still in flight;
            # a stale "token" arriving later is dropped by the epoch floor.
            self._token_epoch_floor = info["epoch"]
        if me == new_holder:
            self.last = me
            if self.has_token and self.requesting and not self.in_cs:
                self.in_cs = True
                self._grant_local()
        else:
            self.last = new_holder
            if self.requesting and not self.in_cs:
                yield from self._send(
                    new_holder, "request", payload=(me, self._view_epoch)
                )
                self.last = me
