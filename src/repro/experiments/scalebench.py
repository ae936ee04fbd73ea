"""Barrier scaling study: GA_Sync variants at up to 16384 processes.

The paper evaluates on 2–16 processes; related NIC-collective work
(Yu et al. on Quadrics/Myrinet, and the 1024-core RISC-V barrier study)
pushes barrier synchronization to 1024 participants.  This experiment runs
the repo's combined fence+barrier implementations —

* ``host-exchange`` — the paper's 3-stage binary exchange on the hosts
  (GA_Sync mode ``new``),
* ``nic-exchange`` — NIC-offloaded recursive-doubling exchange,
* ``nic-tree`` — NIC-offloaded combining tree,
* ``dissemination`` / ``kary`` / ``twolevel`` — the topology-aware host
  algorithms of :mod:`repro.topo.algorithms` (selected by default when the
  network has a :class:`~repro.topo.Hierarchy`),

at N ∈ {64, ..., 1024} simulated processes (and, with per-node actor
coalescing, up to N=16384) and reports both the *simulated* mean GA_Sync
time and the *wall-clock* simulator throughput (events/sec) of each cell,
so the table doubles as a kernel perf probe.

Unlike the Figure 7 workload (every rank writes a strip into every remote
block — O(N²) puts per iteration, infeasible at N=1024), each rank here
issues one small put to its ring neighbor before synchronizing: the put
keeps the fence half of GA_Sync honest (there is always an outstanding
operation to complete) while the cost under study stays the barrier's
O(log N) exchange.

Coalesced cells (``ScaleBenchConfig.coalesce``) run one simulator actor
per *node* instead of per rank (see :mod:`repro.topo.coalesce`): the
intra-node phases of the two-level barrier are charged analytically and
the inter-node phases run for real among the node leaders.  This drops
simulated work from O(N) to O(N / ppn) actors and is what makes the
N=16384 point a CI smoke test rather than an overnight job.

Wall-clock numbers are machine-dependent; only the simulated µs column is
reproducible bit-for-bit.  This experiment is therefore *not* part of
``scripts/regenerate_results.py`` — it is reached via ``repro scalebench``
and perfbench's barrier workloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net.params import NetworkParams
from ..runtime.cluster import ClusterRuntime
from .common import default_params, format_table
from .parallel import budget_note, run_cells

__all__ = [
    "ScaleBenchConfig",
    "ScaleBenchResult",
    "ScaleCell",
    "run_scalebench",
    "SCALE_VARIANTS",
    "HIER_SCALE_VARIANTS",
    "COALESCE_VARIANTS",
]

#: The default compared barrier implementations, in table-column order.
SCALE_VARIANTS: Tuple[str, ...] = ("host-exchange", "nic-exchange", "nic-tree")

#: Default variant set under a hierarchical topology: the flat host
#: exchange as the baseline plus the three topology-aware algorithms.
HIER_SCALE_VARIANTS: Tuple[str, ...] = (
    "host-exchange",
    "dissemination",
    "kary",
    "twolevel",
)

#: GA_Sync mode and parameter overrides per variant name.
_VARIANT_MODES: Dict[str, Tuple[str, Dict[str, object]]] = {
    "host-exchange": ("new", {}),
    "nic-exchange": ("nic", {"nic_algorithm": "exchange"}),
    "nic-tree": ("nic", {"nic_algorithm": "tree"}),
    "dissemination": ("dissemination", {}),
    "kary": ("kary", {}),
    "twolevel": ("twolevel", {}),
}

#: Inter-node (leaders') barrier algorithm used when a variant runs
#: coalesced.  Only ``twolevel`` has a per-node decomposition: its
#: intra-node phases are what :mod:`repro.topo.coalesce` charges, around
#: its own leaders' phase — the recursive-doubling exchange.  ``kary`` and
#: ``dissemination`` are flat algorithms over every rank; the coalesced
#: program would time twolevel's intra-node phases around them and report
#: that as their time.
COALESCE_VARIANTS: Dict[str, str] = {"twolevel": "exchange"}

#: Default process counts (matches the 1024-participant related work).
SCALE_NPROCS: Tuple[int, ...] = (64, 128, 256, 512, 1024)

#: Cells each rank puts to its ring neighbor before every sync.
PUT_CELLS = 8


@dataclass(frozen=True)
class ScaleBenchConfig:
    """Workload parameters for the barrier scaling study."""

    nprocs_list: Tuple[int, ...] = SCALE_NPROCS
    #: Timed GA_Sync iterations per cell (kept small: one iteration at
    #: N=1024 is ~100k simulated events).
    iterations: int = 5
    procs_per_node: int = 1
    params: Optional[NetworkParams] = None
    #: Compared variants; ``None`` selects :data:`SCALE_VARIANTS`, or
    #: :data:`HIER_SCALE_VARIANTS` when ``params.hierarchy`` is set.
    variants: Optional[Tuple[str, ...]] = None
    #: Run one simulator actor per node instead of per rank (requires
    #: ``procs_per_node > 1``; only :data:`COALESCE_VARIANTS` members).
    coalesce: bool = False
    #: Soft wall-clock budget: cells run serially in ascending-N order
    #: and remaining cells are skipped (noted in the result) once the
    #: budget is exhausted.  ``None`` disables the budget.
    wall_budget_s: Optional[float] = None


@dataclass(frozen=True)
class ScaleCell:
    """Measured outcome of one (variant, nprocs) cell."""

    variant: str
    nprocs: int
    #: Mean GA_Sync time over all iterations and ranks (simulated µs).
    sync_us: float
    #: Simulated events processed by the cell's run.
    events: int
    #: Wall-clock seconds for the cell (machine-dependent).
    wall_s: float




@dataclass
class ScaleBenchResult:
    """``cells[variant][nprocs] -> ScaleCell``."""

    title: str
    cells: Dict[str, Dict[int, ScaleCell]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Column order for :meth:`to_rows`; cells a variant is missing (for
    #: example skipped by the wall-clock budget) render as ``-``.
    variants: Tuple[str, ...] = SCALE_VARIANTS

    def record(self, cell: ScaleCell) -> None:
        self.cells.setdefault(cell.variant, {})[cell.nprocs] = cell

    def nprocs_list(self) -> List[int]:
        keys = set()
        for series in self.cells.values():
            keys.update(series)
        return sorted(keys)

    def total_events(self) -> int:
        return sum(
            c.events for series in self.cells.values() for c in series.values()
        )

    def total_wall_s(self) -> float:
        return sum(
            c.wall_s for series in self.cells.values() for c in series.values()
        )

    def to_rows(self) -> List[List[str]]:
        header = ["procs"]
        header += [f"{v} (us)" for v in self.variants]
        header += ["events", "kev/s"]
        rows = [header]
        for n in self.nprocs_list():
            row_cells = [self.cells.get(v, {}).get(n) for v in self.variants]
            present = [c for c in row_cells if c is not None]
            events = sum(c.events for c in present)
            wall = sum(c.wall_s for c in present)
            rows.append(
                [str(n)]
                + ["-" if c is None else f"{c.sync_us:.1f}" for c in row_cells]
                + [str(events), f"{events / wall / 1e3:.0f}" if wall else "-"]
            )
        return rows

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable summary (for ``repro scalebench --json-out``)."""
        return {
            "title": self.title,
            "variants": list(self.variants),
            "nprocs": self.nprocs_list(),
            "cells": [
                {
                    "variant": c.variant,
                    "nprocs": c.nprocs,
                    "sync_us": c.sync_us,
                    "events": c.events,
                    "wall_s": c.wall_s,
                }
                for v in self.variants
                for _, c in sorted(self.cells.get(v, {}).items())
            ],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [
            f"== {self.title} ==",
            "metric: mean GA_Sync time (simulated us) per variant; "
            "events + wall-clock kev/s per row (machine-dependent)",
        ]
        lines.append(format_table(self.to_rows()))
        total_wall = self.total_wall_s()
        if total_wall > 0:
            lines.append(
                f"total: {self.total_events()} events in {total_wall:.2f}s "
                f"wall ({self.total_events() / total_wall / 1e3:.0f} kev/s)"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def scale_workload(ctx, mode: str, cfg: ScaleBenchConfig):
    """Per-rank scaling program: small neighbor put, then timed GA_Sync."""
    from ..ga.sync import ga_sync

    right = (ctx.rank + 1) % ctx.nprocs
    addr = ctx.regions[right].alloc_named("scalebench", PUT_CELLS, initial=0.0)
    values = [float(ctx.rank)] * PUT_CELLS
    sw = ctx.stopwatch("ga_sync")
    for _iteration in range(cfg.iterations):
        yield from ctx.armci.put_segments(right, [(addr, values)])
        sw.start()
        yield from ga_sync(ctx, mode)
        sw.stop()
    return sw.samples


def _scale_cell(cell) -> ScaleCell:
    """One (variant, nprocs) point (picklable sweep cell)."""
    cfg, variant, mode, params, nprocs = cell
    if cfg.coalesce:
        from ..topo.coalesce import coalesced_scale_workload

        ppn = cfg.procs_per_node
        nnodes = nprocs // ppn
        runtime = ClusterRuntime(nnodes, procs_per_node=1, params=params)
        start = time.perf_counter()
        per_rank = runtime.run_spmd(
            coalesced_scale_workload, COALESCE_VARIANTS[variant], cfg, ppn
        )
        wall_s = time.perf_counter() - start
    else:
        runtime = ClusterRuntime(
            nprocs, procs_per_node=cfg.procs_per_node, params=params
        )
        start = time.perf_counter()
        per_rank = runtime.run_spmd(scale_workload, mode, cfg)
        wall_s = time.perf_counter() - start
    pooled = [s for samples in per_rank for s in samples]
    return ScaleCell(
        variant=variant,
        nprocs=nprocs,
        sync_us=sum(pooled) / len(pooled),
        events=runtime.env.events_processed,
        wall_s=wall_s,
    )


def _resolve_variants(cfg: ScaleBenchConfig, base: NetworkParams) -> Tuple[str, ...]:
    if cfg.variants is not None:
        variants = tuple(cfg.variants)
    elif cfg.coalesce:
        variants = ("twolevel",)
    elif base.hierarchy is not None:
        variants = HIER_SCALE_VARIANTS
    else:
        variants = SCALE_VARIANTS
    for variant in variants:
        if variant not in _VARIANT_MODES:
            raise ValueError(
                f"unknown scalebench variant {variant!r}; "
                f"choose from {sorted(_VARIANT_MODES)}"
            )
        if cfg.coalesce and variant not in COALESCE_VARIANTS:
            raise ValueError(
                f"variant {variant!r} cannot run coalesced; "
                f"choose from {sorted(COALESCE_VARIANTS)}"
            )
    return variants


def run_scalebench(
    cfg: ScaleBenchConfig = ScaleBenchConfig(), jobs: int = 1
) -> ScaleBenchResult:
    """Run the barrier scaling study over all variants and process counts."""
    base = default_params(cfg.params)
    variants = _resolve_variants(cfg, base)
    if cfg.coalesce:
        if cfg.procs_per_node < 2:
            raise ValueError("coalesce requires procs_per_node > 1")
        for nprocs in cfg.nprocs_list:
            if nprocs % cfg.procs_per_node:
                raise ValueError(
                    f"coalesce requires nprocs divisible by procs_per_node "
                    f"(got N={nprocs}, ppn={cfg.procs_per_node})"
                )
    title = (
        "Barrier scaling: GA_Sync() time, host vs NIC, "
        f"N up to {max(cfg.nprocs_list)}"
    )
    if base.hierarchy is not None:
        title = (
            "Barrier scaling: GA_Sync() time under hierarchical topology "
            f"[{base.hierarchy.label()}]"
        )
    if cfg.coalesce:
        title += " (per-node coalesced)"
    result = ScaleBenchResult(title=title, variants=variants)
    plans = [
        (variant, mode, base.with_(**overrides) if overrides else base)
        for variant, (mode, overrides) in (
            (v, _VARIANT_MODES[v]) for v in variants
        )
    ]
    # Ascending-N row-major order so a wall-clock budget completes whole
    # rows (all variants at a given N) before moving to the next N.
    cells = [
        (cfg, variant, mode, params, nprocs)
        for nprocs in cfg.nprocs_list
        for variant, mode, params in plans
    ]
    skipped: List[tuple] = []
    for measured in run_cells(
        _scale_cell, cells, jobs=jobs, budget_s=cfg.wall_budget_s, skipped=skipped
    ):
        result.record(measured)
    if skipped:
        result.notes.append(
            budget_note(cfg.wall_budget_s, (f"{c[1]}@N={c[4]}" for c in skipped))
        )
    result.notes.append(
        f"workload: {PUT_CELLS}-cell put to the ring neighbor, then "
        f"GA_Sync, x{cfg.iterations} iterations per cell"
    )
    if cfg.coalesce:
        result.notes.append(
            f"coalesced: one actor per node (ppn={cfg.procs_per_node}); "
            "intra-node phases charged analytically, inter-node phases "
            "simulated (see repro.topo.coalesce)"
        )
    result.notes.append(
        "simulated us columns are deterministic; events/sec is wall-clock "
        "and varies by machine (see docs/performance.md)"
    )
    return result
