"""Software queuing lock — MCS on ARMCI atomics (paper §3.2.2, Figure 5).

Each process owns one *node structure* (``next`` pointer + ``locked`` flag);
a lock is a single ``Lock`` tail pointer in global memory.  Because ARMCI
global pointers are ``(rank, address)`` tuples, the ``Lock`` and ``next``
fields occupy *pairs of longs*, manipulated with the atomic pair operations
the paper added (swap on a pair, compare&swap on a pair).

Cost profile (what Figures 8-10 measure):

* **request**: one atomic ``swap`` on the Lock variable (round trip if the
  home is remote, shared-memory if local); if contended, one non-blocking
  put to set the predecessor's ``next``, then a local spin on ``locked``.
* **handoff**: the releaser writes the next waiter's ``locked`` flag
  directly — **one** message, or **zero** when the waiter shares the node.
* **release with no waiter**: an atomic ``compare&swap`` on the Lock
  variable — a *blocking round trip* when the home is remote.  This is the
  new algorithm's one regression (Figure 10) and the subject of the paper's
  future-work note; ``optimistic_release=True`` implements that future-work
  idea by issuing the compare&swap without waiting (a background completion
  finishes the protocol if the CAS turns out to have failed).

Per the paper, a process needs only one node structure regardless of how
many locks exist — which implies a process may wait on only one MCS lock at
a time; the implementation enforces this.
"""

from __future__ import annotations

from ..net.params import MEMBERSHIP_POLL_US
from ..runtime.memory import NULL_PTR, GlobalAddress
from .base import BaseLock

__all__ = ["MCSLock"]

#: Cells in a node structure: next_rank, next_addr, locked.
_NODE_CELLS = 3
_OFF_NEXT = 0
_OFF_LOCKED = 2

_FALSE = 0
_TRUE = 1


class _NodeStruct:
    """The per-process MCS node structure (one per process, shared by locks)."""

    def __init__(self, ctx):
        self.base = ctx.region.alloc_named("mcs:node", _NODE_CELLS, initial=0)
        # next starts NULL.
        ctx.region.write(self.base + 0, NULL_PTR[0])
        ctx.region.write(self.base + 1, NULL_PTR[1])
        #: Held by the lock currently using the structure (None if free).
        self.in_use_by = None

    @classmethod
    def for_context(cls, ctx) -> "_NodeStruct":
        struct = getattr(ctx, "_mcs_node_struct", None)
        if struct is None:
            struct = cls(ctx)
            ctx._mcs_node_struct = struct
        return struct


class MCSLock(BaseLock):
    """The paper's software queuing lock."""

    kind = "mcs"

    def __init__(
        self,
        ctx,
        home_rank: int,
        name: str = "mcs",
        optimistic_release: bool = False,
    ):
        super().__init__(ctx, home_rank, name)
        home_region = ctx.regions[home_rank]
        #: The Lock tail-pointer pair in the home process's region.
        self.lock_addr = home_region.alloc_named(f"mcs:lock:{name}", 2, initial=-1)
        self.lock_ga = GlobalAddress(home_rank, self.lock_addr)
        self.node_struct = _NodeStruct.for_context(ctx)
        # The tail pair and the whole node structure (next pair + locked
        # flag) are protocol words: swap/CAS/handoff-put all synchronize.
        self._mark_sync_cells(home_region, self.lock_addr, 2)
        self._mark_sync_cells(ctx.region, self.node_struct.base, _NODE_CELLS)
        self.optimistic_release = optimistic_release
        #: Event tracking an in-flight optimistic release (None when idle).
        self._pending_release = None
        # Crash-recovery bookkeeping: queue position ("idle" | "waiting" |
        # "held" | "releasing") and the predecessor this handle enqueued
        # behind (needed to repair a half-finished enqueue).
        self._phase = "idle"
        self._prev_ptr = None

    # -- helpers ---------------------------------------------------------------

    @property
    def _my_ptr(self):
        """This process's node structure as a global pointer pair."""
        return (self.ctx.rank, self.node_struct.base)

    def queue_link(self):
        # The swap on the tail word orders requests (NULL: queue empty).
        prev = self._prev_ptr
        return (None if prev == NULL_PTR else prev, self._my_ptr)

    def _next_ga(self) -> GlobalAddress:
        return GlobalAddress(self.ctx.rank, self.node_struct.base + _OFF_NEXT)

    def _locked_ga(self) -> GlobalAddress:
        return GlobalAddress(self.ctx.rank, self.node_struct.base + _OFF_LOCKED)

    # -- algorithm ---------------------------------------------------------------

    def _acquire(self):
        # A previous optimistic release may still be completing; the node
        # structure cannot be reused until it finishes.
        if self._pending_release is not None:
            yield self._pending_release
            self._pending_release = None
        struct = self.node_struct
        if struct.in_use_by is not None:
            raise RuntimeError(
                f"rank {self.ctx.rank}: MCS node structure already in use by "
                f"lock {struct.in_use_by!r}; a process may wait on only one "
                "MCS lock at a time (paper: one node structure per process)"
            )
        struct.in_use_by = self.name
        self._phase = "waiting"
        self._prev_ptr = None
        armci = self.armci
        # mynode->next = NULL
        yield from armci.store_pair(self._next_ga(), NULL_PTR)
        # prev = swap(Lock, mynode)
        prev = yield from armci.rmw("swap_pair", self.lock_ga, self._my_ptr)
        prev = tuple(prev)
        self._prev_ptr = prev
        if prev == NULL_PTR:
            self._phase = "held"
            self.stats.uncontended_acquires += 1
            return
        # Contended: enqueue behind prev and spin on our locked flag.
        self.stats.bump("contended_acquires")
        yield from armci.store(self._locked_ga(), _TRUE)
        yield from armci.store_pair(
            GlobalAddress(prev[0], prev[1] + _OFF_NEXT), self._my_ptr
        )
        region = self.ctx.region
        yield from region.wait_until(
            struct.base + _OFF_LOCKED,
            lambda v: v == _FALSE,
            poll_detect_us=self.params.poll_detect_us,
        )
        self._phase = "held"

    def _release(self):
        armci = self.armci
        struct = self.node_struct
        self._phase = "releasing"
        next_ptr = yield from armci.load_pair(self._next_ga())
        if next_ptr == NULL_PTR:
            if self.optimistic_release:
                self._release_optimistic()
                return
            # compare&swap(Lock, mynode, NULL)
            ok = yield from armci.rmw("cas_pair", self.lock_ga, self._my_ptr, NULL_PTR)
            self.stats.bump("release_cas")
            if ok:
                struct.in_use_by = None
                self._phase = "idle"
                return
            # A requester swapped the Lock but has not linked itself yet;
            # wait for our next pointer, then hand off.
            self.stats.bump("release_cas_failed")
            next_ptr = yield from self._wait_for_successor()
        yield from self._handoff(next_ptr)
        struct.in_use_by = None
        self._phase = "idle"

    def _wait_for_successor(self):
        region = self.ctx.region
        base = self.node_struct.base
        yield from region.wait_until(
            base + _OFF_NEXT,
            lambda v: v != NULL_PTR[0],
            poll_detect_us=self.params.poll_detect_us,
        )
        return (region.read(base + _OFF_NEXT), region.read(base + _OFF_NEXT + 1))

    def _handoff(self, next_ptr):
        """next->locked = FALSE: one put (zero messages if same node)."""
        self.stats.handoffs += 1
        if self.ctx.topology.node_of(next_ptr[0]) == self.ctx.node:
            self.stats.bump("handoffs_same_node")
        yield from self.armci.put(
            GlobalAddress(next_ptr[0], next_ptr[1] + _OFF_LOCKED), [_FALSE]
        )

    # -- future-work variant --------------------------------------------------------

    def _release_optimistic(self) -> None:
        """Issue the uncontended-release CAS without blocking on its result.

        The paper's §5 notes work toward "eliminating the need for a
        compare&swap operation when releasing a lock"; this variant removes
        it from the *release critical path*: the CAS is sent, the release
        returns immediately, and a background completion handles the rare
        failure (a requester raced in) by waiting for the successor link
        and handing off.  The node structure stays busy until completion.
        """
        done = self.env.event()
        self._pending_release = done
        self.env.process(self._complete_optimistic(done), name=f"{self.name}.optrel")
        # The visible release cost is only the local bookkeeping already
        # charged by the caller; the CAS round trip happens off-path.

    def _complete_optimistic(self, done):
        struct = self.node_struct
        try:
            ok = yield from self.armci.rmw(
                "cas_pair", self.lock_ga, self._my_ptr, NULL_PTR
            )
            if not ok:
                self.stats.bump("release_cas_failed")
                next_ptr = yield from self._wait_for_successor()
                yield from self._handoff(next_ptr)
        finally:
            struct.in_use_by = None
            self._phase = "idle"
            if self._pending_release is done:
                self._pending_release = None
            done.succeed()
        return None

    # -- crash recovery ------------------------------------------------------------

    def _fence_reset(self) -> None:
        self._phase = "idle"

    @classmethod
    def recover(cls, svc, handles, dead: int, transient: bool):
        """Splice a departed rank out of the chain by direct region surgery.

        An excluded (``transient``) waiter keeps its chain position and
        resumes after heal; only a holder is ghost-released."""
        handle = handles[dead]
        if handle._phase in ("held", "releasing"):
            # "releasing": killed mid-release — after entering _release()
            # but before the handoff put / tail CAS completed.  The ghost
            # release observes the region first and only repairs what is
            # still missing, so it is safe for every partial outcome.
            yield from cls._ghost_release(svc, handles, handle)
            return
        if transient or handle._phase != "waiting":
            return
        prev = handle._prev_ptr
        if prev is None or prev == NULL_PTR:
            return  # died before entering the queue
        prev_rank, prev_base = prev
        p, regions = handle.params, handle.ctx.regions
        prev_region, dead_region = regions[prev_rank], regions[dead]
        nbase = handle.node_struct.base
        if p.shm_access_us > 0.0:
            yield p.shm_access_us
        link = (
            prev_region.read(prev_base + _OFF_NEXT),
            prev_region.read(prev_base + _OFF_NEXT + 1),
        )
        if link != handle._my_ptr:
            # The dead rank swapped the tail but never finished linking:
            # complete its enqueue so the predecessor's release can find a
            # successor (and arm the locked flag the handoff will clear).
            dead_region.write(nbase + _OFF_LOCKED, _TRUE)
            prev_region.write(prev_base + _OFF_NEXT, dead)
            prev_region.write(prev_base + _OFF_NEXT + 1, nbase)
        # Wait for the predecessor's (eventual) handoff, then pass it on.
        yield from dead_region.wait_until(
            nbase + _OFF_LOCKED,
            lambda v: v == _FALSE,
            poll_detect_us=p.poll_detect_us,
        )
        yield from cls._ghost_release(svc, handles, handle)

    @staticmethod
    def _lost_linker(svc, handles, dead_handle):
        """The live waiter whose enqueue link targeted the dead node, if its
        locked flag is already armed (so a ghost handoff cannot race the
        arming store).  At most one waiter can have swapped the tail to
        find the dead node as its predecessor."""
        for rank, h in handles.items():
            if h is dead_handle or h._phase != "waiting":
                continue
            if h._prev_ptr != dead_handle._my_ptr or not svc.is_alive(rank):
                continue
            base = h.node_struct.base
            if h.ctx.region.read(base + _OFF_LOCKED) == _TRUE:
                return (rank, base)
        return None

    @classmethod
    def _ghost_release(cls, svc, handles, handle):
        """Perform (or finish) the departed rank's release on its behalf.

        Idempotent against a release the dead rank had already begun: every
        branch observes the region state first and only repairs what is
        still missing — a handoff put or tail CAS that was applied before
        the crash is never redone (rewriting a successor's ``locked`` flag
        after it moved on would grant a later acquisition spuriously).
        """
        p, topology = handle.params, handle.ctx.topology
        dead = handle.ctx.rank
        dead_region = handle.ctx.region
        nbase = handle.node_struct.base
        my_ptr = handle._my_ptr
        home_region = handle.ctx.regions[handle.home_rank]
        lock_addr = handle.lock_addr

        def read_next():
            return (
                dead_region.read(nbase + _OFF_NEXT),
                dead_region.read(nbase + _OFF_NEXT + 1),
            )

        def linker_pending() -> bool:
            """Will anyone still write a link into the dead node's next?

            True for a waiter that enqueued directly behind the dead node
            (its own spin code or crash recovery will complete the link),
            and for a live waiter whose tail swap has not resolved yet —
            it may still turn out to have swapped behind the dead node.
            """
            for rank, h in handles.items():
                if h is handle or h._phase != "waiting":
                    continue
                if h._prev_ptr == my_ptr:
                    return True
                if h._prev_ptr is None and svc.is_alive(rank):
                    return True
            return False

        if p.shm_access_us > 0.0:
            yield p.shm_access_us
        next_ptr = read_next()
        if next_ptr == NULL_PTR:
            if p.shm_atomic_us > 0.0:
                yield p.shm_atomic_us
            tail = (home_region.read(lock_addr), home_region.read(lock_addr + 1))
            if tail == my_ptr:
                # Still the tail with no successor: the dead rank's release
                # CAS never applied (or was never issued); perform it.
                home_region.write(lock_addr, NULL_PTR[0])
                home_region.write(lock_addr + 1, NULL_PTR[1])
                return
            if tail == NULL_PTR:
                # The dead rank's own release CAS already applied.
                return
            # The tail moved past the dead node.  Either a successor
            # swapped in behind it and has not linked yet (the link will
            # come), or the dead rank completed its release CAS before
            # crashing and the tail belongs to a fresh chain that owes the
            # dead node nothing.  Resolve by watching the link cell and
            # the waiting handles until one of the two becomes certain.
            dead_node = topology.node_of(dead)
            while True:
                next_ptr = read_next()
                if next_ptr != NULL_PTR:
                    break
                if svc.node_dead(dead_node):
                    # The dead rank's whole node is down, so a live
                    # successor's link write — routed through that node's
                    # server — can never be applied; waiting for it would
                    # spin forever.  Complete the enqueue on the linker's
                    # behalf (idempotent: the original write is provably
                    # lost).  Only once the linker has armed its own
                    # locked flag, or the handoff below could race the
                    # arming store and be overwritten.
                    linker = cls._lost_linker(svc, handles, handle)
                    if linker is not None:
                        dead_region.write(nbase + _OFF_NEXT, linker[0])
                        dead_region.write(nbase + _OFF_NEXT + 1, linker[1])
                        continue
                if not linker_pending() or svc.node_dead(handle.home_node):
                    return  # nobody will ever link: release already done
                yield MEMBERSHIP_POLL_US
        # Hand off — unless the dead rank's own handoff already landed and
        # the successor moved on (its locked flag may since be re-armed).
        succ = handles.get(next_ptr[0])
        if succ is not None and succ._phase != "waiting":
            return
        if p.shm_access_us > 0.0:
            yield p.shm_access_us
        next_rank, next_base = next_ptr
        handle.ctx.regions[next_rank].write(next_base + _OFF_LOCKED, _FALSE)
