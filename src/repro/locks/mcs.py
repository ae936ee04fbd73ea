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

from ..runtime.atomics import compare_and_swap_pair, swap_pair
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
        #: The node this request's swap returned (None until its reply
        #: lands; ``queue_link`` without a membership service).
        self._prev_ptr = None
        #: The home's record of this lock's queue (membership only).
        self._queue = None
        if self._membership_svc is not None:
            if home_region.rmw_hooks is None:
                home_region.rmw_hooks = {}
            self._queue = home_region.rmw_hooks.setdefault(
                self.lock_addr,
                _QueueRecord(self._membership_svc, home_region, self.lock_addr),
            )

    # -- helpers ---------------------------------------------------------------

    @property
    def _my_ptr(self):
        """This process's node structure as a global pointer pair."""
        return (self.ctx.rank, self.node_struct.base)

    def queue_link(self):
        # The swap on the tail word orders requests (NULL: queue empty).
        # The home's record names each request once: a node pointer is
        # reused, so a dead waiter's request would take its rank's last
        # grant's name.
        if self._queue is not None:
            return self._queue.last[self.ctx.rank].link
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
        self._prev_ptr = None
        armci = self.armci
        # mynode->next = NULL
        yield from armci.store_pair(self._next_ga(), NULL_PTR)
        # prev = swap(Lock, mynode)
        prev = yield from armci.rmw("swap_pair", self.lock_ga, self._my_ptr)
        prev = tuple(prev)
        self._prev_ptr = prev
        if prev == NULL_PTR:
            self.stats.uncontended_acquires += 1
            return
        # Contended: enqueue behind prev and spin on our locked flag.
        self.stats.bump("contended_acquires")
        yield from armci.store(self._locked_ga(), _TRUE)
        if self._queue is not None and self._queue.last[self.ctx.rank].owed:
            # Recovery granted this request before the flag was armed.
            self.ctx.region.write(struct.base + _OFF_LOCKED, _FALSE)
        yield from armci.store_pair(
            GlobalAddress(prev[0], prev[1] + _OFF_NEXT), self._my_ptr
        )
        region = self.ctx.region
        yield from region.wait_until(
            struct.base + _OFF_LOCKED,
            lambda v: v == _FALSE,
            poll_detect_us=self.params.poll_detect_us,
        )

    def _release(self):
        armci = self.armci
        struct = self.node_struct
        next_ptr = yield from armci.load_pair(self._next_ga())
        if self._commits and self._commit():
            struct.in_use_by = None
            return True
        if next_ptr == NULL_PTR:
            if self.optimistic_release:
                self._release_optimistic()
                return
            # compare&swap(Lock, mynode, NULL)
            ok = yield from armci.rmw("cas_pair", self.lock_ga, self._my_ptr, NULL_PTR)
            self.stats.bump("release_cas")
            if ok:
                struct.in_use_by = None
                return
            # A requester swapped the Lock but has not linked itself yet;
            # wait for our next pointer, then hand off.
            self.stats.bump("release_cas_failed")
            next_ptr = yield from self._wait_for_successor()
        yield from self._handoff(next_ptr)
        struct.in_use_by = None

    def _commit(self) -> bool:
        if super()._commit():
            return True
        if self._queue is not None:
            self._queue.last[self.ctx.rank].commit()
        return False

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
            if self._pending_release is done:
                self._pending_release = None
            done.succeed()
        return None

    # -- crash recovery ------------------------------------------------------------

    @classmethod
    def recover(cls, svc, handles, dead: int, transient: bool):
        """Pass ``dead``'s place in the queue on, as the home's record has
        it (never a handle's view, which lags its swap reply).  Behind an
        unfinished release, wait until that release commits; then give
        a releaser still waiting for ``dead``'s link the link it is owed
        (it hands off into the dead node), and grant the recorded
        successor, or clear the tail if ``dead`` is still the tail.  (The
        service recovers an excluded, ``transient``, rank only as a
        holder.)"""
        lock = next(iter(handles.values()))
        queue, p = lock._queue, lock.params
        entry = queue.last.get(dead)
        if entry is None:
            return  # no swap of ``dead``'s ever applied
        if p.shm_access_us > 0.0:
            yield p.shm_access_us
        pred = entry.pred
        if pred is not None and not pred.committed:
            pred.on_commit = svc.env.event()
            yield pred.on_commit
        regions = lock.ctx.regions
        if pred is not None and svc.lease_holder(svc.lock_key(lock)) == pred.rank:
            region, cell = regions[pred.rank], pred.ptr[1] + _OFF_NEXT
            if (region.read(cell), region.read(cell + 1)) == NULL_PTR:
                region.write(cell, entry.ptr[0])
                region.write(cell + 1, entry.ptr[1])
        succ = entry.succ
        if succ is None:
            compare_and_swap_pair(queue.region, queue.addr, entry.ptr, NULL_PTR)
        elif not succ.committed and svc.is_alive(succ.rank):
            region, cell = regions[succ.rank], succ.ptr[1] + _OFF_LOCKED
            if region.read(cell) == _TRUE:
                region.write(cell, _FALSE)
            else:
                succ.owed = True  # not armed yet: it reads this after arming
        entry.commit()


class _Entry:
    """One applied swap on the tail word: who swapped, behind whom."""

    __slots__ = (
        "rank", "ptr", "link", "pred", "succ", "committed", "owed", "on_commit"
    )

    def __init__(self, ptr, pred, serial):
        self.rank, self.ptr = ptr[0], ptr
        #: ``queue_link``'s tokens: the swap numbers of pred and self.
        self.link = (None if pred is None else pred.link[1], serial)
        self.pred = pred
        self.succ = None
        #: Its release committed (or recovery passed its place on).
        self.committed = False
        #: Granted by recovery before it armed its ``locked`` flag.
        self.owed = False
        #: A coordinator waiting for the commit (None: nobody).
        self.on_commit = None

    def commit(self):
        self.committed = True
        self.pred = None  # its successor needs only this flag
        if self.on_commit is not None:
            self.on_commit.succeed()
            self.on_commit = None


class _QueueRecord:
    """The home's record of one MCS lock's queue, under a membership
    service: every swap on the tail word in the order it applies, and
    which entries' releases committed.  It is the tail word's rmw hook
    (``Region.rmw_hooks``), so the server's and a home-node requester's
    swaps both pass through it; an operation that outlives its declared
    sender never applies."""

    def __init__(self, svc, region, addr):
        self.svc, self.region, self.addr = svc, region, addr
        #: rank -> its latest entry.
        self.last = {}
        self.swaps = 0

    def __call__(self, src, fn, args):
        if not self.svc.is_alive(src):
            return None
        result = fn(self.region, self.addr, *args)
        if fn is swap_pair:
            pred = None if tuple(result) == NULL_PTR else self.last[result[0]]
            self.swaps += 1
            entry = self.last[src] = _Entry(tuple(args[0]), pred, self.swaps)
            if pred is not None:
                pred.succ = entry
        return result
