"""The §4.2 lock micro-benchmark shared by Figures 8, 9 and 10.

    "we had each node repeatedly request and release a lock located at
    one of the processes.  We then timed how long each of these
    operations took.  We performed 10,000 iterations of this test and
    took the average times over all iterations and over all processes.
    By varying the number of processes we varied the load on the lock.
    When only one process is performing the test, we took two cases, one
    where the lock was local and one where the lock was remote.  The
    numbers which we reported in the graphs are a average of these two."

One run produces three metrics:

* request+acquire time (Figure 9),
* release time (Figure 10),
* their sum — the "time to request and release" of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..locks import make_lock
from ..mp import collectives
from ..net.params import NetworkParams
from ..runtime.cluster import ClusterRuntime
from .common import Comparison, default_params

__all__ = ["LockBenchConfig", "LockPoint", "run_lock_point", "run_lock_series"]

#: Process counts of the lock figures (1 is the special two-case average).
LOCK_NPROCS: Tuple[int, ...] = (1, 2, 4, 8, 16)

#: Benchmark-loop CPU between consecutive operations (loop control and the
#: timer reads bracketing each op in the paper's test); charged before each
#: acquire and each release, outside the timed window.
OP_GAP_US = 3.0

#: Figures 8-10 as projections of one lock series: the ``(metric, title)``
#: that :func:`comparison_from_series` takes.
LOCK_FIGURES: Dict[str, Tuple[str, str]] = {
    "fig8": ("roundtrip", "Figure 8: time to request and release a lock"),
    "fig9": ("acquire", "Figure 9: time to request and acquire a lock"),
    "fig10": ("release", "Figure 10: time to release a lock"),
}


@dataclass(frozen=True)
class LockBenchConfig:
    """Parameters of the lock stress test."""

    nprocs_list: Tuple[int, ...] = LOCK_NPROCS
    #: Timed lock/unlock iterations per process (paper: 10,000).
    iterations: int = 400
    #: Untimed warm-up iterations (steady-state contention).
    warmup: int = 16
    procs_per_node: int = 1
    params: Optional[NetworkParams] = None
    #: Extra kwargs for the new lock (e.g. optimistic_release=True).
    mcs_kwargs: Optional[dict] = None


@dataclass
class LockPoint:
    """Pooled per-operation means for one (kind, nprocs) configuration."""

    kind: str
    nprocs: int
    acquire_us: float
    release_us: float

    @property
    def roundtrip_us(self) -> float:
        """Request+release time — Figure 8's metric."""
        return self.acquire_us + self.release_us


def lock_workload(ctx, kind: str, home_rank: int, cfg: LockBenchConfig, active=None, lock_kwargs=None):
    """Per-rank program: hammer one lock; returns (acquire, release) samples."""
    lock = make_lock(
        kind, ctx, home_rank=home_rank, name="bench", **(lock_kwargs or {})
    )
    yield from collectives.barrier(ctx.comm)
    if active is not None and ctx.rank not in active:
        return None
    for _w in range(cfg.warmup):
        yield from lock.acquire()
        yield from lock.release()
    lock.acquire_sw.reset()
    lock.release_sw.reset()
    lock.total_sw.reset()
    for _i in range(cfg.iterations):
        yield OP_GAP_US
        yield from lock.acquire()
        yield OP_GAP_US
        yield from lock.release()
    return (lock.acquire_sw.samples, lock.release_sw.samples)


def _pooled_means(per_rank) -> Tuple[float, float]:
    acquire, release = [], []
    for entry in per_rank:
        if entry is None:
            continue
        acquire.extend(entry[0])
        release.extend(entry[1])
    return sum(acquire) / len(acquire), sum(release) / len(release)


def run_lock_point(kind: str, nprocs: int, cfg: LockBenchConfig) -> LockPoint:
    """One (algorithm, process count) measurement.

    ``nprocs == 1`` follows the paper: average of a local-lock case and a
    remote-lock case (the latter homed at an otherwise idle process on
    another node).
    """
    params = default_params(cfg.params)
    lock_kwargs = cfg.mcs_kwargs if (kind == "mcs" and cfg.mcs_kwargs) else None
    if nprocs == 1:
        cases = []
        for home in (0, 1):
            runtime = ClusterRuntime(
                2, procs_per_node=cfg.procs_per_node, params=params
            )
            per_rank = runtime.run_spmd(
                lock_workload, kind, home, cfg, {0}, lock_kwargs
            )
            cases.append(_pooled_means(per_rank))
        acquire = sum(c[0] for c in cases) / 2
        release = sum(c[1] for c in cases) / 2
        return LockPoint(kind, 1, acquire, release)
    runtime = ClusterRuntime(nprocs, procs_per_node=cfg.procs_per_node, params=params)
    per_rank = runtime.run_spmd(lock_workload, kind, 0, cfg, None, lock_kwargs)
    acquire, release = _pooled_means(per_rank)
    return LockPoint(kind, nprocs, acquire, release)


def run_lock_series(
    cfg: LockBenchConfig = LockBenchConfig(),
    kinds: Sequence[str] = ("hybrid", "mcs"),
) -> Dict[str, Dict[int, LockPoint]]:
    """All (kind, nprocs) points; basis for Figures 8-10."""
    out: Dict[str, Dict[int, LockPoint]] = {}
    for kind in kinds:
        out[kind] = {}
        for nprocs in cfg.nprocs_list:
            out[kind][nprocs] = run_lock_point(kind, nprocs, cfg)
    return out


def comparison_from_series(
    series: Dict[str, Dict[int, LockPoint]],
    metric: str,
    title: str,
    baseline: str = "hybrid",
    improved: str = "mcs",
) -> Comparison:
    """Project a lock series onto one metric as a Comparison table."""
    comparison = Comparison(
        title=title,
        metric=metric,
        baseline="current",
        improved="new",
    )
    attr = {
        "roundtrip": "roundtrip_us",
        "acquire": "acquire_us",
        "release": "release_us",
    }[metric]
    for variant, kind in (("current", baseline), ("new", improved)):
        for nprocs, point in series[kind].items():
            comparison.record(variant, nprocs, getattr(point, attr))
    return comparison
