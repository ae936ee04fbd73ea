"""Raymond's tree-based distributed mutual exclusion (paper reference [18]).

K. Raymond, "A tree-based algorithm for distributed mutual exclusion",
ACM TOCS 7(1), 1989.  One of the algorithms the paper's related work
surveys before choosing the MCS software queuing lock.

Processes form a static spanning tree; a single *privilege token* moves
along tree edges.  Each node keeps:

* ``holder`` — the neighbor in whose direction the token lies (or ``self``);
* ``request_q`` — FIFO of neighbors (or ``self``) with outstanding requests;
* ``asked`` — whether a request was already forwarded toward the token.

Messages travel only between tree neighbors, so per-acquire message count
is O(diameter) = O(log N) on the balanced binary tree used here, and the
queue keeps it lower under contention (requests piggyback on the token's
path).  Compared with the ARMCI locks, every hop is a two-sided message
handled by the remote *user* process's progress engine rather than the
node's server thread.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Union

from .token_base import TokenLockBase

__all__ = ["RaymondLock", "tree_neighbors", "initial_holder"]

Self = "self"


def tree_neighbors(rank: int, nprocs: int) -> List[int]:
    """Neighbors of ``rank`` in the balanced binary heap tree over ranks."""
    neighbors = []
    if rank > 0:
        neighbors.append((rank - 1) // 2)
    for child in (2 * rank + 1, 2 * rank + 2):
        if child < nprocs:
            neighbors.append(child)
    return neighbors


def initial_holder(rank: int, home_rank: int, nprocs: int) -> Union[int, str]:
    """First hop from ``rank`` toward ``home_rank`` in the heap tree.

    The token starts at ``home_rank`` ("the lock located at one of the
    processes"), so every other node's ``holder`` must point one step along
    the unique tree path toward it.
    """
    if rank == home_rank:
        return Self
    # Walk home_rank's ancestor chain; if rank is an ancestor, the next hop
    # is rank's child on that chain.  Otherwise the next hop is rank's
    # parent.
    node = home_rank
    chain = [node]
    while node > 0:
        node = (node - 1) // 2
        chain.append(node)
    if rank in chain:
        return chain[chain.index(rank) - 1]
    return (rank - 1) // 2


class RaymondLock(TokenLockBase):
    """Raymond's algorithm, verbatim from the 1989 paper's four handlers."""

    kind = "raymond"

    def __init__(self, ctx, home_rank: int, name: str = "raymond"):
        super().__init__(ctx, home_rank, name)
        self.neighbors = tree_neighbors(ctx.rank, ctx.nprocs)
        self.holder: Union[int, str] = initial_holder(
            ctx.rank, home_rank, ctx.nprocs
        )
        self.using = False
        self.asked = False
        self.request_q: Deque[Union[int, str]] = deque()

    # -- the four state-machine procedures --------------------------------------------

    def _assign_privilege(self):
        if self.holder == Self and not self.using and self.request_q:
            self.holder = self.request_q.popleft()
            self.asked = False
            if self.holder == Self:
                self.using = True
                self._grant_local()
            else:
                self.stats.bump("token_passes")
                yield from self._send(
                    self.holder, "privilege", payload=self._view_epoch
                )

    def _make_request(self):
        if self.holder != Self and self.request_q and not self.asked:
            self.asked = True
            yield from self._send(self.holder, "request", payload=self._view_epoch)

    # -- daemon --------------------------------------------------------------------------

    def _daemon_loop(self):
        while True:
            msg = yield from self._recv()
            if msg.kind == "local_request":
                self.request_q.append(Self)
            elif msg.kind == "request":
                if (msg.payload or 0) < self._view_epoch:
                    # Sent before a crash reconfiguration; the sender
                    # re-issues under the new (star) topology.
                    self.stats.bump("stale_requests_dropped")
                    continue
                self.request_q.append(msg.src)
            elif msg.kind == "privilege":
                if (msg.payload or 0) < self._token_epoch_floor:
                    # Regenerated after a crash while this copy was still
                    # in flight; accepting it would create a second holder.
                    self.stats.bump("stale_privileges_dropped")
                    continue
                self.holder = Self
            elif msg.kind == "local_release":
                self.using = False
            elif msg.kind == "view_change":
                self._apply_view_change(msg.payload)
            else:  # pragma: no cover - protocol bug
                raise ValueError(f"raymond: unknown message {msg!r}")
            yield from self._assign_privilege()
            yield from self._make_request()

    # -- crash recovery ------------------------------------------------------------------

    token_message = "privilege"

    def _holds_token(self) -> bool:
        return self.holder == Self

    def _wants_token(self) -> bool:
        return Self in self.request_q or self.using

    def _fence_reset(self) -> None:
        self.using = False

    def _apply_view_change(self, info) -> None:
        """Crash reconfiguration injected by the membership service.

        The static spanning tree may have lost interior nodes, so survivors
        abandon it and reform as a *star* rooted at the designated holder —
        a valid (depth-1) Raymond tree.  Neighbor requests queued on behalf
        of possibly-dead subtrees are pruned; live requesters re-issue under
        the new epoch (their pre-crash requests are epoch-filtered).  The
        daemon loop's trailing ``_assign_privilege``/``_make_request`` pair
        then regrants or re-requests as needed.
        """
        me = self.ctx.rank
        self._view_epoch = info["epoch"]
        new_holder = info["holder"]
        self.stats.bump("view_changes")
        # Keep only our own outstanding request; neighbor entries may route
        # through dead subtrees and their owners will re-request directly.
        self.request_q = deque(x for x in self.request_q if x == Self)
        self.asked = False
        if info["token_lost"]:
            # The regenerated privilege supersedes any copy still in
            # flight; a stale "privilege" arriving later is dropped by the
            # epoch floor.
            self._token_epoch_floor = info["epoch"]
        if me == new_holder:
            if info["token_lost"]:
                self.holder = Self
            # else: we already hold the token (holder == Self) or it is in
            # flight to us and "privilege" will arrive; leave holder as-is.
        else:
            self.holder = new_holder
