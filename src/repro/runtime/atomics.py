"""Atomic memory operations on :class:`~repro.runtime.memory.Region` cells.

These are the state-transition halves of ARMCI's read-modify-write
operations.  In the simulation, an event callback runs without preemption,
so each function below is naturally atomic; *time* is charged by the caller
(``shm_atomic_us`` when a user process operates on same-node memory
directly, or the server's dispatch cost when executed remotely).

The paper adds two things to ARMCI's stock integer/long atomics, both
implemented here:

* operations on **pairs of longs** (two consecutive cells updated
  atomically), so that ``(rank, address)`` global pointers can be swapped —
  needed by the MCS queuing lock's ``Lock`` tail pointer;
* an atomic **compare&swap**, which stock ARMCI lacked (§3.2.2).
"""

from __future__ import annotations

import functools
from typing import Any, Tuple

from .memory import Region

__all__ = [
    "fetch_and_add",
    "swap",
    "compare_and_swap",
    "read_pair",
    "write_pair",
    "swap_pair",
    "compare_and_swap_pair",
    "accumulate",
    "RMW",
    "apply_rmw",
]

Pair = Tuple[Any, Any]


def _atomic_op(fn):
    """Tag the accesses of an atomic operation for the RMCSan monitor.

    Two atomic operations on the same cell never race with each other (the
    event callback runs without preemption); the monitor's ``atomic`` scope
    records that so the happens-before engine exempts atomic/atomic pairs.
    """

    @functools.wraps(fn)
    def wrapper(region: Region, *args: Any, **kwargs: Any):
        monitor = region._monitor
        if monitor is None:
            return fn(region, *args, **kwargs)
        with monitor.atomic():
            return fn(region, *args, **kwargs)

    return wrapper


@_atomic_op
def fetch_and_add(region: Region, addr: int, increment: int = 1) -> int:
    """Atomically add ``increment`` to the cell; returns the *old* value."""
    old = region.read(addr)
    region.write(addr, old + increment)
    return old


@_atomic_op
def swap(region: Region, addr: int, new: Any) -> Any:
    """Atomically replace the cell with ``new``; returns the old value."""
    old = region.read(addr)
    region.write(addr, new)
    return old


@_atomic_op
def compare_and_swap(region: Region, addr: int, expected: Any, new: Any) -> bool:
    """Atomically set the cell to ``new`` iff it equals ``expected``.

    Returns True on success.  (This is the operation the paper had to add
    to ARMCI.)
    """
    old = region.read(addr)
    if old == expected:
        region.write(addr, new)
        return True
    return False


@_atomic_op
def read_pair(region: Region, addr: int) -> Pair:
    """Atomically read two consecutive cells."""
    return (region.read(addr), region.read(addr + 1))


@_atomic_op
def write_pair(region: Region, addr: int, pair: Pair) -> None:
    """Atomically write two consecutive cells."""
    first, second = pair
    region.write(addr, first)
    region.write(addr + 1, second)


@_atomic_op
def swap_pair(region: Region, addr: int, new: Pair) -> Pair:
    """Atomic swap on a pair of longs; returns the old pair."""
    old = read_pair(region, addr)
    write_pair(region, addr, new)
    return old


@_atomic_op
def compare_and_swap_pair(
    region: Region, addr: int, expected: Pair, new: Pair
) -> bool:
    """Atomic compare&swap on a pair of longs; True on success."""
    old = read_pair(region, addr)
    if old == tuple(expected):
        write_pair(region, addr, new)
        return True
    return False


@_atomic_op
def accumulate(region: Region, addr: int, values, scale: Any = 1) -> None:
    """ARMCI accumulate: ``mem[addr+i] += scale * values[i]`` atomically."""
    for offset, value in enumerate(values):
        old = region.read(addr + offset)
        region.write(addr + offset, old + scale * value)


#: The read-modify-write opcodes, named once: opcode -> the function that
#: executes it.  ``swap_pair`` and ``cas_pair`` are the operations the paper
#: added for (rank, address) global pointers; ``cas`` is the added plain
#: compare&swap.  Requests validate against it, and both executors — the
#: server and the same-node fast path — go through :func:`apply_rmw`.
RMW = {
    "fetch_add": fetch_and_add,
    "swap": swap,
    "cas": compare_and_swap,
    "swap_pair": swap_pair,
    "cas_pair": compare_and_swap_pair,
    "read_pair": read_pair,
}


def apply_rmw(
    region: Region, addr: int, op: str, args: Tuple[Any, ...] = (), src: int = -1
):
    """Execute rmw opcode ``op`` on ``region`` at ``addr`` for rank ``src``;
    returns its result.  A cell with a hook (``Region.rmw_hooks``) is
    handed to it instead: the hook applies the operation, or refuses it
    (``None``), and records what it did."""
    try:
        fn = RMW[op]
    except KeyError:
        raise ValueError(f"unknown rmw op {op!r}; known: {tuple(RMW)}") from None
    hooks = region.rmw_hooks
    if hooks is not None and addr in hooks:
        return hooks[addr](src, fn, args)
    return fn(region, addr, *args)
