"""Parallel sweep runner: shard deterministic experiment cells over workers.

Every experiment in this harness is a grid of independent *cells* — one
``(variant, nprocs, repetition)`` point builds its own
:class:`~repro.runtime.cluster.ClusterRuntime` with a fresh
:class:`~repro.sim.core.Environment`, runs to completion, and reduces to a
few numbers.  Cells share no mutable state, so they can be farmed out to
``multiprocessing`` workers without changing a single simulated value:

* **Determinism.** A cell's output is a pure function of its descriptor
  (config, variant, nprocs, seed).  Workers replay exactly the serial
  computation; :func:`run_cells` reassembles results in submission order
  (``Pool.map`` preserves order), so serial and parallel runs emit
  byte-identical tables.  The ``--check`` mode of
  ``scripts/regenerate_results.py`` proves this on every CI run.
* **Seeding.** Cells that need randomness (fault injection, jitter) take
  their seed from the cell descriptor itself (its network parameters) —
  never from a worker-local or global counter, which would make the
  result depend on how cells were sharded.
* **Fallback.** ``jobs <= 1`` runs the exact serial path (a plain loop in
  this process, no pool, no pickling, and ``multiprocessing`` is not even
  imported), so the runner adds nothing to single-core environments.

``evaluate`` must be picklable — a function defined at module top level —
for ``jobs > 1``; each experiment module defines its own ``_*_cell``
worker function next to its ``run_*`` entry point.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar

__all__ = ["budget_note", "default_jobs", "run_cells", "within_budget"]

C = TypeVar("C")
R = TypeVar("R")


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` / "use all cores" requests."""
    return os.cpu_count() or 1


def within_budget(
    items: Iterable[C], budget_s: Optional[float], skipped: List[C]
) -> Iterator[C]:
    """``items`` in order until ``budget_s`` wall-clock seconds have passed
    since the first was asked for; the rest are appended to ``skipped``.

    The budget stops only the *starting* of work: whatever the caller does
    with an item before asking for the next one finishes, and a budget of 0
    starts nothing.  ``budget_s=None`` yields every item.
    """
    deadline = None if budget_s is None else time.perf_counter() + budget_s
    for item in items:
        if deadline is not None and time.perf_counter() >= deadline:
            skipped.append(item)
        else:
            yield item


def budget_note(budget_s: float, skipped: Iterable[str]) -> str:
    """The line a budgeted run prints to list what it did not start."""
    return f"wall budget {budget_s:g}s exhausted; skipped {', '.join(skipped)}"


def run_cells(
    evaluate: Callable[[C], R],
    cells: Iterable[C],
    jobs: Optional[int] = 1,
    budget_s: Optional[float] = None,
    skipped: Optional[List[C]] = None,
) -> List[R]:
    """Evaluate every cell, optionally across ``jobs`` worker processes.

    Results come back in the order of ``cells`` regardless of which worker
    finished first, and each cell is evaluated exactly once — the parallel
    path is observationally identical to ``[evaluate(c) for c in cells]``.
    ``jobs=None`` or ``jobs=0`` means "one worker per core".

    With ``budget_s`` the cells run serially, in order, through
    :func:`within_budget`: the result holds the cells that started, and
    the ones that did not are appended to ``skipped``.
    """
    if budget_s is not None:
        return [evaluate(cell) for cell in within_budget(cells, budget_s, skipped)]
    cells = list(cells)
    if jobs is None or jobs <= 0:
        jobs = default_jobs()
    if jobs <= 1 or len(cells) <= 1:
        return [evaluate(cell) for cell in cells]
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()
    with ctx.Pool(min(jobs, len(cells))) as pool:
        # chunksize=1: cells are coarse (whole simulations), so dynamic
        # dispatch beats pre-chunking when cell costs are skewed by nprocs.
        return pool.map(evaluate, cells, chunksize=1)
