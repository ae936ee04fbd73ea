"""Application-level impact: a Global-Arrays mini-app under both syncs.

The paper's introduction motivates the work with application scalability:
blocked processes "cannot perform useful computation", and sync cost grows
with system size.  This experiment runs a representative GA mini-app — a
power-iteration-style loop (remote assembly puts + GA_Sync + global dot,
the skeleton of many NWChem/Global-Arrays kernels) — and reports the
makespan and the fraction of time spent synchronizing under the original
and the optimized GA_Sync, across system sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..ga.array import GlobalArray
from ..ga.operations import dot
from ..net.params import NetworkParams
from ..runtime.cluster import ClusterRuntime
from .common import default_params, format_table

__all__ = ["AppScalingConfig", "AppScalingResult", "run_app_scaling"]


@dataclass(frozen=True)
class AppScalingConfig:
    nprocs_list: Tuple[int, ...] = (2, 4, 8, 16)
    iterations: int = 10
    shape: Tuple[int, int] = (128, 128)
    #: Simulated local compute per iteration (µs) — sets the comm/comp ratio.
    compute_us: float = 150.0
    procs_per_node: int = 1
    params: Optional[NetworkParams] = None


@dataclass
class AppScalingResult:
    config: AppScalingConfig
    #: mode -> nprocs -> (makespan_us, sync_share)
    data: Dict[str, Dict[int, Tuple[float, float]]] = field(default_factory=dict)

    def speedup(self, nprocs: int) -> float:
        """Makespan(current) / makespan(new)."""
        return self.data["current"][nprocs][0] / self.data["new"][nprocs][0]

    def render(self) -> str:
        rows = [[
            "procs", "current makespan (us)", "new makespan (us)",
            "current sync %", "new sync %", "app speedup",
        ]]
        for n in sorted(self.data["current"]):
            cur_mk, cur_share = self.data["current"][n]
            new_mk, new_share = self.data["new"][n]
            rows.append([
                str(n), f"{cur_mk:.0f}", f"{new_mk:.0f}",
                f"{100 * cur_share:.1f}", f"{100 * new_share:.1f}",
                f"{self.speedup(n):.2f}",
            ])
        return (
            "== Application impact: GA mini-app under current vs new "
            "GA_Sync ==\n" + format_table(rows)
        )


def _mini_app(ctx, mode: str, cfg: AppScalingConfig):
    """One rank of the mini-app; returns (sync_us, makespan_us)."""
    ga = GlobalArray(ctx, "app", cfg.shape)
    rows, cols = cfg.shape
    start = ctx.now
    sync_us = 0.0
    # Deterministic pseudo-data (no RNG in the timed loop).
    for iteration in range(cfg.iterations):
        # Compute phase (overlappable local work).
        yield ctx.compute(cfg.compute_us)
        # Assembly phase: contribute a strip to every remote block.
        for peer in range(ctx.nprocs):
            if peer == ctx.rank:
                continue
            blk = ga.dist.block(peer)
            strip_rows = min(2, blk.nrows)
            section = (blk.row0, blk.row0 + strip_rows, blk.col0, blk.col1)
            value = float((ctx.rank + 1) * (iteration + 1))
            data = [[value] * blk.ncols] * strip_rows
            yield from ga.put(section, data)
        # Synchronize: the operation under study.
        t0 = ctx.now
        yield from ga.sync(mode)
        sync_us += ctx.now - t0
        # Reduction phase: a global dot, as in eigensolver loops.
        yield from dot(ga, ga)
    return sync_us, ctx.now - start


def run_app_scaling(cfg: AppScalingConfig = AppScalingConfig()) -> AppScalingResult:
    result = AppScalingResult(config=cfg)
    params = default_params(cfg.params)
    for mode in ("current", "new"):
        result.data[mode] = {}
        for nprocs in cfg.nprocs_list:
            runtime = ClusterRuntime(
                nprocs, procs_per_node=cfg.procs_per_node, params=params
            )
            per_rank = runtime.run_spmd(_mini_app, mode, cfg)
            makespan = max(r[1] for r in per_rank)
            sync_share = (sum(r[0] for r in per_rank) / len(per_rank)) / makespan
            result.data[mode][nprocs] = (makespan, sync_share)
    return result
