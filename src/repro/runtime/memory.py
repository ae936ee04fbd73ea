"""Simulated process memory regions with global addressing.

ARMCI references remote memory with a tuple of the remote process id and a
virtual address at that process (paper §3.2.2); :class:`GlobalAddress` is
exactly that tuple.  Each user process owns a :class:`Region`; the region is
*shared* with the server thread on the owner's node and with the other user
processes on that node, so those parties may read/write it directly (the
simulation charges them shared-memory costs; remote parties must go through
the server).

Regions support **write watchers**: a process that polls a memory word (a
ticket-lock counter, an MCS ``locked`` flag, the server's ``op_done``
counter) registers interest in an address and is woken on writes.  This
models spin-polling without simulating every poll iteration; the configured
``poll_detect_us`` delay is charged by the waiter after the write that
satisfies it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..sim.core import Environment
from ..sim.primitives import Broadcast

__all__ = ["GlobalAddress", "Region", "NULL_PTR", "audit_slots"]


class GlobalAddress(NamedTuple):
    """ARMCI global pointer: (owning process rank, address in its region)."""

    rank: int
    addr: int

    def __repr__(self) -> str:  # keep test output compact
        return f"GA({self.rank},{self.addr})"


#: The encoding of a NULL global pointer as a pair of longs.  ARMCI's added
#: pair atomics operate on two long words; NULL is (-1, -1).
NULL_PTR = (-1, -1)


class Region:
    """A process's registered memory: a growable array of 8-byte cells.

    State changes are instantaneous (the simulation charges access *time* to
    whoever performs the access); the region only tracks values and wakes
    watchers.
    """

    #: Bytes per cell (everything is a long/double slot, as in ARMCI's
    #: integer/long atomics).
    CELL_BYTES = 8

    def __init__(self, env: Environment, owner_rank: int, name: Optional[str] = None):
        self.env = env
        self.owner_rank = owner_rank
        self.name = name or f"region[{owner_rank}]"
        self._cells: List[Any] = []
        self._watchers: Dict[int, Broadcast] = {}
        self._named: Dict[str, int] = {}
        #: Count of individual cell writes (diagnostics / tests).
        self.writes = 0
        self.reads = 0
        #: RMCSan monitor, when one was installed on the environment before
        #: this region was built (see repro.analysis.monitor); None keeps
        #: every access on the uninstrumented fast path.
        self._monitor = getattr(env, "_sync_monitor", None)
        #: Cells whose read-modify-writes a lock's home record sees (an MCS
        #: tail word under a membership service): addr -> hook; None when
        #: no cell has one (see :func:`repro.runtime.atomics.apply_rmw`).
        self.rmw_hooks: Optional[Dict[int, Any]] = None

    def __repr__(self) -> str:
        return f"<Region {self.name} cells={len(self._cells)}>"

    def __len__(self) -> int:
        return len(self._cells)

    # -- allocation ----------------------------------------------------------

    def alloc(self, count: int, initial: Any = 0) -> int:
        """Bump-allocate ``count`` cells, returning the base address."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        base = len(self._cells)
        self._cells.extend([initial] * count)
        return base

    def alloc_named(self, key: str, count: int, initial: Any = 0) -> int:
        """Allocate once under a stable name; later calls return the same base.

        SPMD code constructs shared objects (locks, global arrays) on every
        rank; the first constructor to touch a region allocates, the others
        resolve to the same cells — the moral equivalent of a collective
        ``ARMCI_Malloc`` without requiring construction-order coordination.
        """
        base = self._named.get(key)
        if base is None:
            base = self.alloc(count, initial)
            self._named[key] = base
        return base

    def _check(self, addr: int) -> None:
        if not (0 <= addr < len(self._cells)):
            raise IndexError(
                f"address {addr} out of range [0, {len(self._cells)}) in {self.name}"
            )

    # -- access --------------------------------------------------------------

    def read(self, addr: int) -> Any:
        self._check(addr)
        self.reads += 1
        if self._monitor is not None:
            self._monitor.on_read(self, addr)
        return self._cells[addr]

    def write(self, addr: int, value: Any) -> None:
        self._check(addr)
        self._cells[addr] = value
        self.writes += 1
        if self._monitor is not None:
            self._monitor.on_write(self, addr)
        watcher = self._watchers.get(addr)
        if watcher is not None and watcher.waiting:
            watcher.fire(value)

    def read_many(self, addr: int, count: int) -> List[Any]:
        if count < 0:
            raise ValueError("count must be >= 0")
        if addr < 0 or addr + max(count, 1) > len(self._cells):
            self._check(addr)
            if count:
                self._check(addr + count - 1)
        self.reads += count
        if self._monitor is not None and count:
            self._monitor.on_read(self, addr, count)
        return self._cells[addr : addr + count]

    def write_many(self, addr: int, values: Sequence[Any]) -> None:
        if not values:
            return
        n = len(values)
        if addr < 0 or addr + n > len(self._cells):
            self._check(addr)
            self._check(addr + n - 1)
        if self._monitor is not None:
            # One ranged event; the per-cell writes below stay silent.
            self._monitor.on_write(self, addr, n)
            with self._monitor.bulk():
                for offset, value in enumerate(values):
                    self.write(addr + offset, value)
            return
        # Bulk fast path: one slice assignment instead of n write() calls,
        # then watcher wake-ups in the same ascending-address order the
        # per-cell loop produced (so schedule sequence numbers — and thus
        # simulated results — are byte-identical).
        self._cells[addr : addr + n] = values
        self.writes += n
        watchers = self._watchers
        if watchers:
            end = addr + n
            if len(watchers) < n:
                watched = sorted(a for a in watchers if addr <= a < end)
            else:
                watched = range(addr, end)
            for a in watched:
                watcher = watchers.get(a)
                if watcher is not None and watcher.waiting:
                    watcher.fire(values[a - addr])

    # -- polling -------------------------------------------------------------

    def watcher(self, addr: int) -> Broadcast:
        """The (lazily created) broadcast fired on writes to ``addr``."""
        self._check(addr)
        watcher = self._watchers.get(addr)
        if watcher is None:
            watcher = Broadcast(self.env, name=f"{self.name}@{addr}")
            self._watchers[addr] = watcher
        return watcher

    def wait_until(
        self,
        addr: int,
        predicate: Callable[[Any], bool],
        poll_detect_us: float = 0.0,
    ):
        """Sub-generator: spin until ``predicate(cells[addr])`` holds.

        Models a polling loop: if the value already satisfies the predicate,
        returns immediately; otherwise sleeps until a write to the address,
        charges ``poll_detect_us`` (the poll-loop reaction time), and
        re-checks.  Returns the observed value.
        """
        value = self._cells[self._index_checked(addr)]
        while not predicate(value):
            yield self.watcher(addr).wait()
            if poll_detect_us > 0.0:
                yield poll_detect_us
            value = self._cells[addr]
        if self._monitor is not None:
            # The satisfying poll-loop read (bypasses read() and its
            # diagnostic counter, so the event is emitted here directly).
            self._monitor.on_read(self, addr)
        return value

    def _index_checked(self, addr: int) -> int:
        self._check(addr)
        return addr


def audit_slots(
    ctx, base: int, cells: int, want: Callable, allowed: Callable
) -> Tuple[bool, bool, List[List[Any]]]:
    """Post-barrier memory audit: peer ``p`` put ``want(p)`` into its
    ``cells`` cells at ``base + p * cells`` of every region.  An in-view
    peer's slot must hold it; any other's must be whole, one value of
    ``allowed(p)`` (a dead peer's put lands or not, never torn).  Returns
    ``(slots_ok, dead_slots_ok, slots)``, ``slots`` the ``[peer, cells]``
    read, in peer order."""
    membership = ctx.membership
    slots_ok = dead_slots_ok = True
    slots: List[List[Any]] = []
    for peer in range(ctx.nprocs):
        if peer == ctx.rank:
            continue
        got = ctx.region.read_many(base + peer * cells, cells)
        slots.append([peer, list(got)])
        if membership is None or membership.in_view(peer):
            slots_ok = slots_ok and got == [want(peer)] * cells
        else:
            seen = set(got)
            dead_slots_ok = dead_slots_ok and len(seen) <= 1 and seen <= allowed(peer)
    return slots_ok, dead_slots_ok, slots
