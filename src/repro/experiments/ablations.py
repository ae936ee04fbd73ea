"""Ablation studies for the design choices the paper calls out.

Five studies (see DESIGN.md's ablation table):

* :func:`run_crossover` — §3.1.2's closing note: when puts touch fewer than
  ~``log2(N)/2`` servers, the *original* linear fence beats the exchange
  (fewer round trips than exchange phases).  Sweeps the number of put
  targets and locates the crossover; also validates the ``auto`` policy.
* :func:`run_fence_modes` — §3.1.1: ack-mode (LAPI/VIA) vs confirm-mode
  (GM) AllFence cost.
* :func:`run_smp_handoff` — §3.2.2: zero-message lock handoff when the next
  waiter shares the releaser's node (SMP co-location), by varying processes
  per node.
* :func:`run_wake_cost` — sensitivity of both lock algorithms to the server
  wake-up cost the paper's analysis leans on.
* :func:`run_release_opt` — §5 future work: the MCS variant that removes
  the blocking compare&swap from the release critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..ga.array import GlobalArray
from ..mp import collectives
from ..net.params import NetworkParams
from ..runtime.cluster import ClusterRuntime
from .common import Comparison, default_params, format_table
from .lockbench import LockBenchConfig, LockPoint, run_lock_point

__all__ = [
    "run_crossover",
    "run_fence_modes",
    "run_smp_handoff",
    "run_wake_cost",
    "run_release_opt",
    "run_lock_algorithms",
    "render_lock_algorithms",
    "run_lock_fairness",
    "render_lock_fairness",
    "run_skew",
    "CrossoverResult",
]


# ---------------------------------------------------------------------------
# Crossover: few put targets -> linear wins
# ---------------------------------------------------------------------------


@dataclass
class CrossoverResult:
    """Sync time by number of put targets, for each barrier algorithm."""

    nprocs: int
    #: targets -> {algorithm: mean sync us}
    by_targets: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def crossover_targets(self) -> Optional[int]:
        """Smallest target count at which the exchange algorithm wins."""
        for targets in sorted(self.by_targets):
            row = self.by_targets[targets]
            if row["exchange"] <= row["linear"]:
                return targets
        return None

    def render(self) -> str:
        rows = [["targets", "linear (us)", "exchange (us)", "auto (us)", "winner"]]
        for targets in sorted(self.by_targets):
            row = self.by_targets[targets]
            winner = "exchange" if row["exchange"] <= row["linear"] else "linear"
            rows.append(
                [
                    str(targets),
                    f"{row['linear']:.1f}",
                    f"{row['exchange']:.1f}",
                    f"{row['auto']:.1f}",
                    winner,
                ]
            )
        head = (
            f"== Ablation: fence/barrier crossover at {self.nprocs} procs ==\n"
            "paper (section 3.1.2): with puts to fewer than ~log2(N)/2 other "
            "processes the original implementation may win"
        )
        return head + "\n" + format_table(rows)


def _crossover_workload(ctx, algorithm: str, targets: int, iterations: int, chunk: int):
    """Put to ``targets`` distinct remote ranks, then run the barrier."""
    addr = ctx.region.alloc_named("xover", chunk, initial=0)
    sw = ctx.stopwatch("sync")
    peers = [
        (ctx.rank + 1 + k) % ctx.nprocs
        for k in range(targets)
        if (ctx.rank + 1 + k) % ctx.nprocs != ctx.rank
    ]
    for _it in range(iterations):
        for peer in peers:
            yield from ctx.armci.put(ctx.ga(peer, addr), [float(ctx.rank)] * chunk)
        yield from collectives.barrier(ctx.comm)
        sw.start()
        yield from ctx.armci.barrier(algorithm=algorithm)
        sw.stop()
    return sw.samples


def run_crossover(
    nprocs: int = 16,
    targets_list: Sequence[int] = (0, 1, 2, 3, 4, 8, 15),
    iterations: int = 30,
    chunk: int = 16,
    params: Optional[NetworkParams] = None,
) -> CrossoverResult:
    result = CrossoverResult(nprocs=nprocs)
    params = default_params(params)
    for targets in targets_list:
        if targets >= nprocs:
            continue
        row: Dict[str, float] = {}
        for algorithm in ("linear", "exchange", "auto"):
            runtime = ClusterRuntime(nprocs, params=params)
            samples = runtime.run_spmd(
                _crossover_workload, algorithm, targets, iterations, chunk
            )
            pooled = [s for per_rank in samples for s in per_rank]
            row[algorithm] = sum(pooled) / len(pooled)
        result.by_targets[targets] = row
    return result


# ---------------------------------------------------------------------------
# Fence modes: ack (LAPI/VIA) vs confirm (GM)
# ---------------------------------------------------------------------------


def _fence_mode_workload(ctx, iterations: int, chunk: int):
    addr = ctx.region.alloc_named("fm", chunk, initial=0)
    sw = ctx.stopwatch("allfence")
    for _it in range(iterations):
        for k in range(ctx.nprocs - 1):
            peer = (ctx.rank + 1 + k) % ctx.nprocs
            yield from ctx.armci.put(ctx.ga(peer, addr), [1.0] * chunk)
        yield from collectives.barrier(ctx.comm)
        sw.start()
        yield from ctx.armci.allfence()
        sw.stop()
        yield from collectives.barrier(ctx.comm)
    return sw.samples


def run_fence_modes(
    nprocs_list: Sequence[int] = (2, 4, 8, 16),
    iterations: int = 30,
    chunk: int = 16,
    params: Optional[NetworkParams] = None,
) -> Comparison:
    """AllFence cost under the two §3.1.1 subsystem styles."""
    comparison = Comparison(
        title="Ablation: AllFence under confirm-mode (GM) vs ack-mode (LAPI/VIA)",
        metric="mean ARMCI_AllFence time (us)",
        baseline="confirm",
        improved="ack",
    )
    params = default_params(params)
    for mode in ("confirm", "ack"):
        for nprocs in nprocs_list:
            runtime = ClusterRuntime(nprocs, params=params, fence_mode=mode)
            samples = runtime.run_spmd(_fence_mode_workload, iterations, chunk)
            pooled = [s for per_rank in samples for s in per_rank]
            comparison.record(mode, nprocs, sum(pooled) / len(pooled))
    comparison.notes.append(
        "ack-mode fences need no extra messages (puts are acknowledged), "
        "which is why the paper's optimization targets the GM-style case"
    )
    return comparison


# ---------------------------------------------------------------------------
# SMP co-location: zero-message handoffs
# ---------------------------------------------------------------------------


def run_smp_handoff(
    nprocs: int = 8,
    ppn_list: Sequence[int] = (1, 2, 4, 8),
    cfg: Optional[LockBenchConfig] = None,
    params: Optional[NetworkParams] = None,
) -> Comparison:
    """Lock round-trip time vs processes-per-node, hybrid vs MCS.

    With more co-location the MCS lock increasingly passes the lock through
    pure shared memory (zero messages), while the hybrid always visits the
    server.
    """
    base_cfg = cfg or LockBenchConfig(iterations=300)
    comparison = Comparison(
        title=f"Ablation: SMP co-location, {nprocs} processes (lock round-trip)",
        metric="mean request+release time (us); x-axis = processes per node",
        baseline="current",
        improved="new",
    )
    for kind, variant in (("hybrid", "current"), ("mcs", "new")):
        for ppn in ppn_list:
            point_cfg = replace(
                base_cfg,
                procs_per_node=ppn,
                params=params if params is not None else base_cfg.params,
                mcs_kwargs=None,
            )
            point = run_lock_point(kind, nprocs, point_cfg)
            comparison.record(variant, ppn, point.roundtrip_us)
    comparison.notes.append(
        "x-axis is processes per node (not process count); full co-location "
        "turns MCS handoffs into pure shared-memory operations"
    )
    return comparison


# ---------------------------------------------------------------------------
# Server wake cost sensitivity
# ---------------------------------------------------------------------------


def run_wake_cost(
    nprocs: int = 8,
    wake_list: Sequence[float] = (0.0, 9.0, 18.0, 36.0),
    cfg: Optional[LockBenchConfig] = None,
) -> Comparison:
    """Lock round-trip vs server wake-up cost, hybrid vs MCS."""
    base_cfg = cfg or LockBenchConfig(iterations=300)
    comparison = Comparison(
        title=f"Ablation: server wake-up cost sensitivity, {nprocs} processes",
        metric="mean request+release time (us); x-axis = server_wake_us",
        baseline="current",
        improved="new",
    )
    base_params = default_params(base_cfg.params)
    for kind, variant in (("hybrid", "current"), ("mcs", "new")):
        for wake in wake_list:
            point_cfg = replace(
                base_cfg,
                params=base_params.with_(server_wake_us=wake),
                mcs_kwargs=None,
            )
            point = run_lock_point(kind, nprocs, point_cfg)
            comparison.record(variant, int(wake), point.roundtrip_us)
    comparison.notes.append(
        "the hybrid pays the wake on every unlock's server visit; the MCS "
        "lock's handoffs bypass the server entirely under contention"
    )
    return comparison


# ---------------------------------------------------------------------------
# Future work: optimistic release
# ---------------------------------------------------------------------------


def run_release_opt(
    nprocs_list: Sequence[int] = (1, 2, 4, 8, 16),
    cfg: Optional[LockBenchConfig] = None,
) -> Dict[str, Dict[int, LockPoint]]:
    """MCS vs MCS with the §5 optimistic (non-blocking CAS) release.

    Returns {variant: {nprocs: LockPoint}} with variants ``mcs`` and
    ``mcs-opt``; the optimistic variant should cut the *release* time at low
    contention (where the blocking CAS dominated) without hurting the rest.
    """
    base_cfg = cfg or LockBenchConfig(iterations=300)
    out: Dict[str, Dict[int, LockPoint]] = {"mcs": {}, "mcs-opt": {}}
    for variant, kwargs in (("mcs", None), ("mcs-opt", {"optimistic_release": True})):
        for nprocs in nprocs_list:
            point_cfg = replace(base_cfg, mcs_kwargs=kwargs)
            out[variant][nprocs] = run_lock_point("mcs", nprocs, point_cfg)
    return out


# ---------------------------------------------------------------------------
# Process skew (the paper's §4.1 methodology note)
# ---------------------------------------------------------------------------


def _skew_workload(ctx, mode: str, skew_us: float, iterations: int, pre_barrier: bool):
    """GA_Sync timing with per-rank arrival skew, with/without the paper's
    protective MPI_Barrier before the timed call."""
    import random

    from ..ga.array import GlobalArray

    ga = GlobalArray(ctx, "skew", (64, 64))
    rng = random.Random(1234 + ctx.rank)
    sw = ctx.stopwatch("sync")
    for _it in range(iterations):
        for peer in range(ctx.nprocs):
            if peer == ctx.rank:
                continue
            blk = ga.dist.block(peer)
            yield from ga.put(
                (blk.row0, blk.row0 + 1, blk.col0, blk.col1),
                [[1.0] * blk.ncols],
            )
        # Injected skew: ranks arrive at the sync at different times.
        yield ctx.compute(rng.uniform(0.0, skew_us))
        if pre_barrier:
            yield from collectives.barrier(ctx.comm)
        sw.start()
        yield from ga.sync(mode)
        sw.stop()
    return sw.samples


@dataclass
class SkewResult:
    """Measured GA_Sync by (implementation, pre-barrier?) under skew."""

    nprocs: int
    skew_us: float
    #: (mode, pre_barrier) -> mean reported sync us
    data: Dict[Tuple[str, bool], float] = field(default_factory=dict)

    def inflation(self, mode: str) -> float:
        """How much skew inflates the reported time without the pre-barrier."""
        return self.data[(mode, False)] / self.data[(mode, True)]

    def render(self) -> str:
        rows = [["mode", "pre-barrier (us)", "no pre-barrier (us)", "inflation"]]
        for mode in ("current", "new"):
            rows.append(
                [
                    mode,
                    f"{self.data[(mode, True)]:.1f}",
                    f"{self.data[(mode, False)]:.1f}",
                    f"{self.inflation(mode):.2f}x",
                ]
            )
        return (
            f"== Ablation: process skew and the 4.1 methodology "
            f"({self.nprocs} procs, U[0,{self.skew_us:.0f}]us skew) ==\n"
            + format_table(rows)
        )


def run_skew(
    nprocs: int = 16,
    skew_us: float = 200.0,
    iterations: int = 20,
    params: Optional[NetworkParams] = None,
) -> SkewResult:
    """Reported GA_Sync time with and without the protective pre-barrier.

    §4.1: "We called MPI_Barrier() before calling GA_Sync() ... to ensure
    that the times we were reporting were not due to process skew."
    Without the pre-barrier, the timed interval absorbs the arrival skew of
    the slowest process; the sync algorithms themselves are unchanged.
    """
    result = SkewResult(nprocs=nprocs, skew_us=skew_us)
    params = default_params(params)
    for pre_barrier in (True, False):
        for mode in ("current", "new"):
            runtime = ClusterRuntime(nprocs, params=params)
            per_rank = runtime.run_spmd(
                _skew_workload, mode, skew_us, iterations, pre_barrier
            )
            pooled = [s for samples in per_rank for s in samples]
            result.data[(mode, pre_barrier)] = sum(pooled) / len(pooled)
    return result


# ---------------------------------------------------------------------------
# Related-work lock algorithms (paper §3.2 survey: Raymond [18], Naimi [20])
# ---------------------------------------------------------------------------


def run_lock_algorithms(
    kinds: Sequence[str] = ("hybrid", "mcs", "raymond", "naimi"),
    nprocs_list: Sequence[int] = (2, 4, 8, 16),
    cfg: Optional[LockBenchConfig] = None,
) -> Dict[str, Dict[int, LockPoint]]:
    """Round-trip time of every implemented mutex algorithm.

    The paper's related work surveys tree- and path-compression token
    algorithms before adopting MCS; this ablation quantifies the choice on
    the same cost model (token hops are two-sided messages through the
    *user* processes' progress engines, MCS handoffs are one-sided puts
    through the node servers).
    """
    point_cfg = replace(cfg or LockBenchConfig(iterations=300), mcs_kwargs=None)
    out: Dict[str, Dict[int, LockPoint]] = {}
    for kind in kinds:
        out[kind] = {}
        for nprocs in nprocs_list:
            out[kind][nprocs] = run_lock_point(kind, nprocs, point_cfg)
    return out


def run_lock_fairness(
    kinds: Sequence[str] = ("hybrid", "mcs", "raymond", "naimi"),
    nprocs: int = 8,
    iterations: int = 200,
    params: Optional[NetworkParams] = None,
) -> Dict[str, Dict[int, float]]:
    """Per-rank mean acquire time for each algorithm (fairness profile).

    The ARMCI locks grant in strict request order (server ticket queue /
    MCS queue), so per-rank waits are uniform.  Token algorithms can favor
    processes topologically close to the token's usual position — Raymond's
    tree makes this visible.  Returns ``{kind: {rank: mean_acquire_us}}``.
    """
    from ..locks import make_lock
    from ..mp import collectives

    params = default_params(params)
    out: Dict[str, Dict[int, float]] = {}

    def workload(ctx, kind):
        lock = make_lock(kind, ctx, home_rank=0, name="fair")
        yield from collectives.barrier(ctx.comm)
        for _w in range(8):
            yield from lock.acquire()
            yield from lock.release()
        lock.acquire_sw.reset()
        for _i in range(iterations):
            yield from lock.acquire()
            yield from lock.release()
        yield from ctx.armci.barrier()
        return lock.acquire_sw.mean()

    for kind in kinds:
        runtime = ClusterRuntime(nprocs, params=params)
        per_rank = runtime.run_spmd(workload, kind)
        out[kind] = dict(enumerate(per_rank))
    return out


def fairness_spread(per_rank: Dict[int, float]) -> float:
    """Max/min ratio of per-rank mean acquire times (1.0 = perfectly fair)."""
    values = list(per_rank.values())
    return max(values) / min(values)


def render_lock_fairness(data: Dict[str, Dict[int, float]]) -> str:
    kinds = list(data)
    ranks = sorted(next(iter(data.values())))
    rows = [["rank"] + [f"{kind} (us)" for kind in kinds]]
    for rank in ranks:
        rows.append(
            [str(rank)] + [f"{data[kind][rank]:.1f}" for kind in kinds]
        )
    rows.append(
        ["max/min"] + [f"{fairness_spread(data[kind]):.2f}" for kind in kinds]
    )
    return (
        "== Ablation: per-rank acquire time (fairness) ==\n"
        + format_table(rows)
    )


def render_lock_algorithms(series: Dict[str, Dict[int, LockPoint]]) -> str:
    kinds = list(series)
    nprocs_list = sorted(next(iter(series.values())))
    rows = [["procs"] + [f"{kind} (us)" for kind in kinds]]
    for n in nprocs_list:
        rows.append(
            [str(n)] + [f"{series[kind][n].roundtrip_us:.1f}" for kind in kinds]
        )
    return (
        "== Ablation: lock round-trip across mutex algorithms "
        "(paper 3.2 related work) ==\n" + format_table(rows)
    )


def render_release_opt(series: Dict[str, Dict[int, LockPoint]]) -> str:
    rows = [["procs", "mcs rel (us)", "mcs-opt rel (us)", "mcs total", "mcs-opt total"]]
    for n in sorted(series["mcs"]):
        a, b = series["mcs"][n], series["mcs-opt"][n]
        rows.append(
            [
                str(n),
                f"{a.release_us:.1f}",
                f"{b.release_us:.1f}",
                f"{a.roundtrip_us:.1f}",
                f"{b.roundtrip_us:.1f}",
            ]
        )
    return (
        "== Ablation: section-5 future work - optimistic MCS release ==\n"
        + format_table(rows)
    )
