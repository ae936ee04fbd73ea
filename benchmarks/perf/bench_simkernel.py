"""The calibrated host-speed anchor behind perfbench's host ratios.

``perfbench/run.py`` loads :func:`measure_anchor` from this file by path
(``load_measure_anchor``) and divides a workload's simulated events per
untraced host second by the anchor's ops/sec: ``host.events_per_anchor_op``,
a kernel-throughput figure in which machine speed cancels out.  CI's
perf-smoke job gates on that ratio for the ``fig7_putsync`` workload.

The anchor is a pinned pure-Python loop with the kernel's operation mix
(generator resume, dict store, heap push/pop).  Changing ``ANCHOR_OPS``
or the loop body invalidates every recorded ratio.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

#: Operations per anchor pass.  Pinned: see the module docstring.
ANCHOR_OPS = 200_000


def _anchor_pass(n: int = ANCHOR_OPS) -> int:
    """One pass of the calibration anchor: the kernel's operation mix
    (generator resume, dict store, heap push/pop) in pure Python, with a
    data-dependent accumulator so nothing is optimized away."""

    def spin():
        acc = 0
        while True:
            acc = (yield acc) + 1

    gen = spin()
    next(gen)
    heap = []
    table = {}
    acc = 0
    for i in range(n):
        acc = gen.send(acc) & 0xFFFFFF
        heappush(heap, ((i * 2654435761) & 0xFFFF, acc))
        table[i & 1023] = acc
        if (i & 7) == 0:
            acc ^= heappop(heap)[1]
    gen.close()
    return acc


def measure_anchor(repeats: int) -> float:
    """Anchor throughput (ops/sec), best of ``max(repeats, 3)`` passes."""
    best = float("inf")
    for _ in range(max(repeats, 3)):
        start = time.perf_counter()
        _anchor_pass()
        best = min(best, time.perf_counter() - start)
    return ANCHOR_OPS / best
