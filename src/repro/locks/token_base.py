"""Infrastructure for token-based distributed mutex algorithms.

The paper's related work (§3.2) lists several distributed mutual-exclusion
algorithms it chose *not* to adopt — Raymond's tree algorithm [18] and the
Naimi-Trehel log(N) algorithm [20] among them.  We implement both as
baselines (see :mod:`repro.locks.raymond` and :mod:`repro.locks.naimi`) so
the trade-off the authors made can be measured.

Token algorithms differ structurally from the ARMCI locks: a process must
*react* to protocol messages (requests, token transfers) even while its
application code is busy.  Real implementations service these in the
communication library's progress engine; here each lock handle spawns a
daemon process that owns a private tag on the message-passing mailbox.
The application side talks to its local daemon through the same mailbox
(self-addressed messages over the intra-node path), which models the
app-thread/progress-thread handoff queue.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

from ..sim.core import Event
from .base import BaseLock

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.context import ProcessContext

__all__ = ["TokenLockBase", "LockMessage"]

_TAG_TOKEN_LOCK = 9 << 24


@dataclass
class LockMessage:
    """Protocol message between lock daemons (or app -> own daemon)."""

    kind: str  # "local_request" | "local_release" | algorithm-specific
    src: int
    payload: Any = None


class TokenLockBase(BaseLock):
    """Daemon lifecycle + messaging shared by Raymond and Naimi-Trehel."""

    def __init__(self, ctx: "ProcessContext", home_rank: int, name: str):
        super().__init__(ctx, home_rank, name)
        self.comm = ctx.comm
        # Stable per-lock tag shared across ranks (same name -> same tag).
        self.tag = _TAG_TOKEN_LOCK + (zlib.crc32(name.encode()) % 65536)
        #: The application-side event fired by the daemon on grant.
        self._pending_grant: Optional[Event] = None
        #: Crash recovery: membership epoch of the last view change this
        #: daemon applied (stale pre-crash requests are discarded), and
        #: when the outstanding local request was made (survivor ordering).
        self._view_epoch = 0
        self._requested_at: Optional[float] = None
        #: Tokens tagged with an epoch below this floor are duplicates: a
        #: view change regenerated the token at this-or-a-later epoch while
        #: that copy was still in flight, and accepting it would create a
        #: second holder.  Only bumped when a regeneration actually happens
        #: (``token_lost``) — an in-flight token the recovery located and
        #: chose to keep must still be accepted under its old epoch.
        self._token_epoch_floor = 0
        self._daemon = ctx.env.process(
            self._daemon_loop(), name=f"{name}.daemon[{ctx.rank}]"
        )

    # -- messaging ---------------------------------------------------------------

    def _send(self, dst: int, kind: str, payload: Any = None):
        """Send a protocol message to ``dst``'s daemon for this lock."""
        self.stats.bump(f"sent_{kind}")
        yield from self.comm.send(
            dst, LockMessage(kind, self.ctx.rank, payload), tag=self.tag
        )

    def _recv(self):
        """Daemon side: next protocol message for this lock.

        The daemon models a *progress engine* inside the user process.  Like
        the ARMCI server thread, it sleeps when idle; a message that finds
        it blocked pays the same wake-up cost a sleeping server pays
        (otherwise the two-sided token algorithms would get a free,
        infinitely responsive progress thread the 2003 systems did not
        have).
        """
        # Peek without consuming: is a matching message already queued?
        was_idle = not any(
            self._is_mine(envelope) for envelope in self.comm.mailbox.items
        )
        msg = yield from self.comm.recv(tag=self.tag)
        if was_idle and self.params.server_wake_us > 0.0:
            self.stats.bump("daemon_wakes")
            yield self.params.server_wake_us
        return msg.payload

    def _is_mine(self, envelope) -> bool:
        payload = getattr(envelope, "payload", None)
        return payload is not None and getattr(payload, "tag", None) == self.tag

    # -- app <-> daemon handshake ---------------------------------------------------

    def _acquire(self):
        grant = self.env.event()
        self._pending_grant = grant
        self._requested_at = self.env.now
        yield from self._send(self.ctx.rank, "local_request")
        yield grant

    def _release(self):
        # Fire-and-forget, like the hybrid's unlock: the daemon performs the
        # token passing asynchronously.
        yield from self._send(self.ctx.rank, "local_release")

    def _grant_local(self) -> None:
        """Daemon side: wake the blocked application acquire."""
        if self._pending_grant is None:  # pragma: no cover - protocol bug
            raise RuntimeError(f"{self!r}: grant with no pending local request")
        grant, self._pending_grant = self._pending_grant, None
        grant.succeed()

    # -- crash recovery ---------------------------------------------------------------

    lock_words_at_home = False

    @classmethod
    def recover(cls, svc, handles, dead: int, transient: bool):
        """Coordinator-led reconfiguration: regenerate the token at a
        deterministic survivor and reset every survivor's pointers via
        injected ``view_change`` messages (star re-request topology)."""
        alive = {r: h for r, h in handles.items() if svc.in_view(r)}
        if not alive:
            return

        def requested_at(rank: int) -> float:
            h = alive[rank]
            return h._requested_at if h._wants_token() else float("inf")

        # The survivor that holds (or is about to receive) the token.
        new_holder = next((r for r in sorted(alive) if alive[r]._token_here()), None)
        token_lost = new_holder is None
        if token_lost:
            # Regenerate at the earliest requester (else the lowest rank).
            new_holder = min(alive, key=lambda r: (requested_at(r), r))
        payload = {
            "epoch": svc.epoch,
            "holder": new_holder,
            "alive": sorted(alive),
            "token_lost": token_lost,
        }
        svc.record_token_regen(svc.lock_key(alive[new_holder]), payload)
        # Deliver the view change holder-first, then earliest requester
        # first, so the rebuilt request chain preserves arrival order of
        # the surviving requests.
        order = sorted(alive, key=lambda r: (r != new_holder, requested_at(r), r))
        sender = alive[new_holder]
        for rank in order:
            yield from sender.comm.send(
                rank, LockMessage("view_change", new_holder, payload), tag=sender.tag
            )

    def replay_view_change(self, svc, payload):
        """Rejoin resync: re-send a regeneration this rank missed while
        excluded *from its own comm* (an intra-node self-send).  Per-pair
        FIFO delivery then guarantees the daemon applies it before any
        ``local_request`` the application can post after the freeze gate
        opens, closing the stale-token window without a handshake.
        """
        me = self.ctx.rank
        # Point the rejoiner at the *current* holder when a lease exists —
        # the token may have moved since regeneration — and keep the
        # regeneration epoch so its request/floor epochs stay consistent
        # with what the majority daemons applied.
        target = svc.lease_holder(svc.lock_key(self))
        if target is None or target == me or not svc.in_view(target):
            target = payload["holder"]
        if target == me or not svc.in_view(target):
            target = min((v for v in svc.alive_ranks() if v != me), default=me)
        refreshed = dict(
            payload, holder=target, alive=sorted(set(payload["alive"]) | {me})
        )
        yield from self.comm.send(
            me, LockMessage("view_change", target, refreshed), tag=self.tag
        )

    def _token_here(self) -> bool:
        """Does this daemon hold the token, or is it already delivered to
        its mailbox (not yet processed — still counts as safe)?"""
        return self._holds_token() or any(
            self._is_mine(envelope)
            and envelope.payload.payload.kind == self.token_message
            for envelope in self.comm.mailbox.items
        )

    # -- to implement ------------------------------------------------------------------

    #: Kind of the protocol message that carries the token.
    token_message: str

    def _daemon_loop(self):  # pragma: no cover - abstract
        raise NotImplementedError
        yield

    def _holds_token(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _wants_token(self) -> bool:  # pragma: no cover - abstract
        """Is a local request outstanding (or being served)?"""
        raise NotImplementedError
