"""NIC ablation: host binary exchange vs. NIC-offloaded barrier.

Three-way comparison of the combined fence+barrier implementations over
the process counts of the paper's Figure 7 workload:

* ``host-exchange`` — the paper's 3-stage binary exchange run by the host
  processes (GA_Sync mode ``new``),
* ``nic-exchange`` — the NIC co-processors run all three stages with the
  recursive-doubling exchange (``nic_algorithm="exchange"``),
* ``nic-tree`` — same, with the combining-tree variant
  (``nic_algorithm="tree"``).

The host posts a single doorbell and sleeps; stage 2 is satisfied against
the NIC-resident ``op_done`` mirror, so no host is involved between the
doorbell and the completion write-back.  The NIC wins once the saved
per-phase host overhead (two ``mp_call_us`` + send/recv ``o_*`` beats)
exceeds the doorbell + DMA cost of shipping the ``op_init`` row down.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .common import SeriesTable, default_params
from .fig7_sync import Fig7Config, _fig7_cell
from .parallel import budget_note, run_cells

__all__ = ["NicBenchConfig", "NicBenchResult", "run_nicbench", "VARIANTS"]

#: The three compared implementations, in table-column order.
VARIANTS: Tuple[str, ...] = ("host-exchange", "nic-exchange", "nic-tree")


#: The NIC ablation runs the Figure 7 workload, so it takes its parameters.
NicBenchConfig = Fig7Config


@dataclass
class NicBenchResult(SeriesTable):
    """``values[variant][nprocs] -> mean GA_Sync time (us)``."""

    title: str
    metric: str
    values: Dict[str, Dict[int, float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def best(self, nprocs: int) -> str:
        """Winning variant at ``nprocs`` (deterministic tie-break)."""
        return min(VARIANTS, key=lambda v: (self.get(v, nprocs), v))

    def factor(self, nprocs: int) -> float:
        """host-exchange / best NIC variant (>1 means offload wins)."""
        nic_best = min(
            self.get("nic-exchange", nprocs), self.get("nic-tree", nprocs)
        )
        return self.get("host-exchange", nprocs) / nic_best

    def to_rows(self) -> List[List[str]]:
        header = ["procs"] + [f"{v} (us)" for v in VARIANTS]
        header += ["best", "factor"]
        rows = [header]
        for n in self.nprocs_list():
            means = [self.values.get(v, {}).get(n) for v in VARIANTS]
            if None in means:  # a wall budget stopped this row part-way
                rows.append(
                    [str(n)] + ["-" if m is None else f"{m:.1f}" for m in means]
                    + ["-", "-"]
                )
                continue
            rows.append(
                [str(n)]
                + [f"{m:.1f}" for m in means]
                + [self.best(n), f"{self.factor(n):.2f}"]
            )
        return rows


def run_nicbench(
    cfg: NicBenchConfig = NicBenchConfig(),
    jobs: int = 1,
    budget_s: Optional[float] = None,
) -> NicBenchResult:
    """Run the three-way host vs. NIC barrier comparison.

    ``jobs > 1`` shards the (variant, nprocs) cells over worker processes;
    results are identical to a serial run (each cell is an independent
    simulation — see :mod:`repro.experiments.parallel`).  ``budget_s``
    runs the cells serially in ascending-N order and starts none once that
    many wall-clock seconds have passed; the skipped cells are noted.
    """
    result = NicBenchResult(
        title="NIC ablation: GA_Sync() time (host vs NIC offload)",
        metric="mean GA_Sync time over all iterations and processes (us)",
    )
    base = default_params(cfg.params)
    plans = (
        ("host-exchange", "new", base),
        ("nic-exchange", "nic", base.with_(nic_algorithm="exchange")),
        ("nic-tree", "nic", base.with_(nic_algorithm="tree")),
    )
    # Ascending-N row-major order, so a budget completes rows in order.
    labels, cells = zip(*(
        ((variant, nprocs), (replace(cfg, params=params), mode, nprocs))
        for nprocs in cfg.nprocs_list
        for variant, mode, params in plans
    ))
    skipped: List[tuple] = []
    means = run_cells(_fig7_cell, cells, jobs=jobs, budget_s=budget_s, skipped=skipped)
    for (variant, nprocs), mean in zip(labels, means):
        result.record(variant, nprocs, mean)
    if skipped:
        result.notes.append(
            budget_note(budget_s, (f"{v}@N={n}" for v, n in labels[len(means):]))
        )
    result.notes.append(
        f"workload: {cfg.shape} array, {cfg.strip_rows}-row strips to every "
        f"remote block, {cfg.iterations} iterations"
    )
    result.notes.append(
        "nic variants: host posts one doorbell (op_init row DMA'd to the "
        "NIC); stage 2 satisfied against the NIC-resident op_done mirror"
    )
    return result
