"""Figure 7: GA_Sync() time, original vs. new implementation.

The paper's §4.1 test, re-created workload-for-workload:

    "we created a two dimensional array which is distributed uniformly
    over the set of processes, and had each process write values into
    portions of the array which are remote to them.  Next, we performed
    an MPI_Barrier() ... then we called GA_Sync() and timed it.  We
    performed this test 100 times and took the average time for all
    iterations over all processes."

Panel (a) is the two time series, panel (b) the factor of improvement —
the paper reports 1724.3 µs (current) vs 190.3 µs (new) at 16 processes,
a factor of up to 9.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from ..ga.array import GlobalArray
from ..mp import collectives
from ..net.params import NetworkParams
from ..runtime.cluster import ClusterRuntime
from .common import DEFAULT_NPROCS, Comparison, default_params
from .parallel import run_cells

__all__ = ["Fig7Config", "run_fig7", "sync_workload"]


@dataclass(frozen=True)
class Fig7Config:
    """Workload parameters for the GA_Sync test."""

    nprocs_list: Tuple[int, ...] = DEFAULT_NPROCS
    #: GA_Sync iterations per configuration (paper: 100).
    iterations: int = 100
    #: Global array shape; distributed uniformly over the process grid.
    shape: Tuple[int, int] = (256, 256)
    #: Rows of each remote block written per iteration by each process.
    strip_rows: int = 4
    procs_per_node: int = 1
    params: Optional[NetworkParams] = None


def sync_workload(ctx, mode: str, cfg: Fig7Config):
    """Per-rank Figure 7 program; returns the list of GA_Sync samples (us)."""
    ga = GlobalArray(ctx, "fig7", cfg.shape)
    sw = ctx.stopwatch("ga_sync")
    # The strip written to each remote block is the same every iteration;
    # prepare each transfer once and replay it (identical simulated traffic).
    strips = []
    for rank in range(ctx.nprocs):
        if rank == ctx.rank:
            continue
        blk = ga.dist.block(rank)
        rows = min(cfg.strip_rows, blk.nrows)
        section = (blk.row0, blk.row0 + rows, blk.col0, blk.col1)
        data = [[float(ctx.rank)] * blk.ncols] * rows
        strips.append(ga.prepare_put(section, data))
    for _iteration in range(cfg.iterations):
        # Write values into remote portions of the array.
        for put in strips:
            yield from put.issue()
        # MPI_Barrier so the timing isn't skewed by process arrival.
        yield from collectives.barrier(ctx.comm)
        sw.start()
        yield from ga.sync(mode)
        sw.stop()
    return sw.samples


def _fig7_cell(cell) -> float:
    """One (mode, nprocs) point: mean GA_Sync time (picklable sweep cell)."""
    cfg, mode, nprocs = cell
    runtime = ClusterRuntime(
        nprocs, procs_per_node=cfg.procs_per_node, params=cfg.params
    )
    per_rank_samples = runtime.run_spmd(sync_workload, mode, cfg)
    pooled = [s for samples in per_rank_samples for s in samples]
    return sum(pooled) / len(pooled)


def run_fig7(cfg: Fig7Config = Fig7Config(), jobs: int = 1) -> Comparison:
    """Run both GA_Sync implementations over the process counts.

    ``jobs > 1`` shards the (mode, nprocs) cells over worker processes;
    every cell is an independent simulation, so the numbers are identical
    to a serial run (see :mod:`repro.experiments.parallel`).
    """
    comparison = Comparison(
        title="Figure 7: GA_Sync() time (current vs new)",
        metric="mean GA_Sync time over all iterations and processes (us)",
        baseline="current",
        improved="new",
    )
    cfg = replace(cfg, params=default_params(cfg.params))
    cells = [
        (cfg, mode, nprocs)
        for mode in ("current", "new")
        for nprocs in cfg.nprocs_list
    ]
    means = run_cells(_fig7_cell, cells, jobs=jobs)
    for (_cfg, mode, nprocs), mean_us in zip(cells, means):
        comparison.record(mode, nprocs, mean_us)
    comparison.notes.append(
        f"workload: {cfg.shape} array, {cfg.strip_rows}-row strips to every "
        f"remote block, {cfg.iterations} iterations"
    )
    return comparison
