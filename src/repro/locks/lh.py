"""The LH queue lock (paper reference [9]).

P. Magnusson, A. Landin, E. Hagersten, "Efficient software synchronization
on large cache coherent multiprocessors", SICS T94:07 — the "LH" of the
"LH and M" locks the paper's §3.2 survey mentions.

LH is a queue lock for cache-coherent shared memory: a global tail pointer
holds the address of the *previous* requester's flag cell; an acquirer

1. marks its own cell PENDING,
2. atomically swaps the tail with its cell's address,
3. spins on the *predecessor's* cell until it reads GRANTED.

Release writes GRANTED into the cell the releaser owned.  The subtlety is
cell recycling: after acquiring, a process takes ownership of the
predecessor's (now GRANTED) cell for its *next* acquisition, so exactly one
cell per process circulates regardless of lock count.

Like the ticket lock it requires all participants to map the lock's memory
— it is a *local* (single-node) algorithm here, the CC-NUMA counterpart of
the hybrid's ticket half.  Its advantage over tickets: each waiter spins
on a *different* cell, so a release invalidates one spinner's line instead
of all of them.  Our model charges per-write watcher wakeups either way,
which lets the bench below show the queue-vs-broadcast difference in
wakeup counts rather than time.
"""

from __future__ import annotations

from .base import BaseLock

__all__ = ["LHLock"]

_PENDING = 1
_GRANTED = 0


class LHLock(BaseLock):
    """LH queue lock on shared memory (all requesters on the home node)."""

    kind = "lh"

    def __init__(self, ctx, home_rank: int, name: str = "lh"):
        super().__init__(ctx, home_rank, name)
        if not self.is_home_local:
            raise ValueError(
                f"LH lock {name!r} homed on node {self.home_node} is not "
                f"mappable from rank {ctx.rank} on node {ctx.node}; LH is a "
                "shared-memory algorithm (use HybridLock/MCSLock remotely)"
            )
        region = ctx.regions[home_rank]
        # Cell pool: one cell per process + one initial dummy, all in the
        # home region, plus the tail pointer.  The dummy starts GRANTED so
        # the first acquirer proceeds immediately.
        self._region = region
        self._tail_addr = region.alloc_named(f"lh:{name}:tail", 1, initial=-1)
        dummy = region.alloc_named(f"lh:{name}:dummy", 1, initial=_GRANTED)
        if region.read(self._tail_addr) == -1:
            region.write(self._tail_addr, dummy)
        #: The flag cell this process currently owns (recycled on acquire).
        self.my_cell = region.alloc_named(
            f"lh:{name}:cell:{ctx.rank}", 1, initial=_GRANTED
        )
        # Tail, dummy, and every per-process flag cell are protocol words
        # (cells recycle between processes, so each rank marks its own).
        self._mark_sync_cells(region, self._tail_addr)
        self._mark_sync_cells(region, dummy)
        self._mark_sync_cells(region, self.my_cell)
        self._spin_cell = None
        # Crash-recovery bookkeeping: where this handle sits in the queue
        # ("idle" | "waiting" | "held"), which cell it spins on, and which
        # cell it published for its successor.
        self._phase = "idle"
        self._prev_cell = None
        self._published_cell = None

    def _acquire(self):
        p = self.params
        region = self._region
        # 1. my cell := PENDING  (successors will spin on it)
        yield p.shm_access_us
        region.write(self.my_cell, _PENDING)
        # 2. prev := swap(tail, my cell)
        yield p.shm_atomic_us
        prev = region.read(self._tail_addr)
        region.write(self._tail_addr, self.my_cell)
        self._published_cell = self.my_cell
        self._prev_cell = prev
        self._phase = "waiting"
        # 3. spin on the predecessor's cell.
        yield p.shm_access_us
        if region.read(prev) != _GRANTED:
            self.stats.bump("spins")
            yield from region.wait_until(
                prev, lambda v: v == _GRANTED, poll_detect_us=p.poll_detect_us
            )
        else:
            self.stats.uncontended_acquires += 1
        # Cell recycling: I spun the predecessor's cell down; it becomes my
        # cell for the next round, and the cell I published (now queued
        # behind the tail) stays live for my successor.
        self._spin_cell = self.my_cell
        self.my_cell = prev
        self._phase = "held"

    def _release(self):
        # GRANTED into the cell my successor spins on (the one I published).
        yield self.params.shm_access_us
        self._region.write(self._spin_cell, _GRANTED)
        self._phase = "idle"
        self.stats.handoffs += 1

    def _fence_reset(self) -> None:
        self._phase = "idle"

    @classmethod
    def recover(cls, svc, handles, dead: int, transient: bool):
        """Ghost-release for a departed holder; for a dead waiter, chain a
        ghost forwarder (the grant flows through its cell).  An excluded
        waiter keeps its queue slot and resumes spinning after heal."""
        handle = handles[dead]
        region, p = handle._region, handle.params
        if handle._phase == "held":
            if p.shm_access_us > 0.0:
                yield p.shm_access_us
            region.write(handle._spin_cell, _GRANTED)
        elif handle._phase == "waiting" and not transient:
            # When the predecessor eventually grants the dead waiter,
            # forward the grant to whoever spins on the cell it published.
            yield from region.wait_until(
                handle._prev_cell,
                lambda v: v == _GRANTED,
                poll_detect_us=p.poll_detect_us,
            )
            if p.shm_access_us > 0.0:
                yield p.shm_access_us
            region.write(handle._published_cell, _GRANTED)
