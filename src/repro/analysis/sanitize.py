"""Monitored ("sanitized") runs of representative workloads.

``repro check [target]`` runs scaled-down versions of the key experiment
workloads with a :class:`~repro.analysis.monitor.SyncMonitor` installed and
feeds the collected event stream to the happens-before engine.  A clean
tree reports zero violations on every target; CI runs all of them.

The configurations are deliberately small (a few ranks, a few iterations):
the checker's power comes from the *protocols* being exercised — fences,
the combined barrier, both lock families, the reliable-delivery layer under
injected faults — not from iteration counts, and event analysis is
quadratic-ish in trace length.

Experiment modules are imported lazily inside each runner so importing
:mod:`repro.analysis` stays cheap and cycle-free.
"""

from __future__ import annotations

from typing import List, Tuple

from .hb import SanReport
from .monitor import SyncMonitor

__all__ = ["TARGETS", "run_sanitized_target"]

#: Recognized ``repro check`` targets (``all`` expands to every entry).
TARGETS = ("fig7", "locks", "faultbench", "chaos", "nic", "partition", "topo")


def _sanitized_spmd(nprocs: int, main, *args, **runtime_kwargs):
    """Run one SPMD program under a fresh monitor; return its report."""
    from ..runtime.cluster import ClusterRuntime

    monitor = SyncMonitor()
    runtime = ClusterRuntime(nprocs, monitor=monitor, **runtime_kwargs)
    runtime.run_spmd(main, *args)
    return monitor.analyze()


def _sanitized_scenario(scenario) -> SanReport:
    """Run one fuzz :class:`~repro.fuzz.scenario.Scenario` under a monitor."""
    from ..fuzz.runner import _fuzz_workload, _make_params
    from ..locks import LockAudit

    return _sanitized_spmd(
        scenario.nprocs,
        _fuzz_workload,
        scenario,
        LockAudit(),
        procs_per_node=scenario.procs_per_node,
        params=_make_params(scenario),
    )


def _check_fig7() -> List[Tuple[str, SanReport]]:
    """GA_Sync workload, both fence implementations (paper Figure 7)."""
    from ..experiments.common import default_params
    from ..experiments.fig7_sync import Fig7Config, sync_workload

    cfg = Fig7Config(iterations=2, shape=(16, 16), strip_rows=2)
    params = default_params(cfg.params)
    return [
        (
            f"fig7[{mode}]",
            _sanitized_spmd(4, sync_workload, mode, cfg, params=params),
        )
        for mode in ("current", "new")
    ]


def _check_locks() -> List[Tuple[str, SanReport]]:
    """Lock stress (Figures 8-10 workload), hybrid and MCS algorithms."""
    from ..experiments.common import default_params
    from ..experiments.lockbench import LockBenchConfig, lock_workload

    cfg = LockBenchConfig(iterations=6, warmup=2)
    params = default_params(cfg.params)
    return [
        (
            f"locks[{kind}]",
            _sanitized_spmd(4, lock_workload, kind, 0, cfg, params=params),
        )
        for kind in ("hybrid", "mcs")
    ]


def _check_faultbench() -> List[Tuple[str, SanReport]]:
    """Put/acc/barrier epochs over a faulty link (reliable delivery on)."""
    from ..experiments.faultbench import (
        FaultBenchConfig,
        _make_params,
        fault_workload,
    )

    cfg = FaultBenchConfig(nprocs=6, epochs=2, puts_per_peer=1, cells=4)
    out = []
    for drop in (0.0, 0.05):
        report = _sanitized_spmd(
            cfg.nprocs,
            fault_workload,
            cfg,
            procs_per_node=cfg.procs_per_node,
            params=_make_params(cfg, drop),
        )
        out.append((f"faultbench[drop={drop}]", report))
    return out


def _check_chaos() -> List[Tuple[str, SanReport]]:
    """Crash-stop kills during the barrier exchange and inside a lock CS.

    Exercises the crash event vocabulary end to end: ``proc_crashed`` /
    ``view_change`` / ``lease_revoked`` emissions, write-off accounting on
    ``barrier_exit``, and the revoked-ticket carve-out of the FIFO rule.
    """
    from ..experiments.chaosbench import (
        ChaosBenchConfig,
        _make_params,
        chaos_workload,
    )
    from ..locks import LockAudit

    out = []
    for kind in ("hybrid", "mcs"):
        cfg = ChaosBenchConfig(
            nprocs=6,
            lock_kind=kind,
            barrier_kills=((4, 60.0),),
            lock_kills=((5, 900.0),),
            lock_iters=2,
        )
        report = _sanitized_spmd(
            cfg.nprocs,
            chaos_workload,
            cfg,
            LockAudit(),
            procs_per_node=cfg.procs_per_node,
            params=_make_params(cfg),
        )
        out.append((f"chaos[{kind}]", report))
    return out


def _check_nic() -> List[Tuple[str, SanReport]]:
    """GA_Sync via the NIC-offloaded barrier, both NIC algorithms.

    Exercises the ``nic_doorbell``/``nic_combine``/``nic_release`` event
    vocabulary and the no-early-release rule: every release must
    happen-after every participating rank's doorbell.

    The crashed variants kill a NIC (hosts survive on a dead device) and
    a whole node mid-run, covering the commit-or-abort protocol: a
    committed epoch is force-released at the view change, an uncommitted
    one degrades every host to the resilient exchange together.
    """
    from ..experiments.common import default_params
    from ..experiments.fig7_sync import Fig7Config, sync_workload
    from ..fuzz.scenario import Scenario

    cfg = Fig7Config(iterations=2, shape=(16, 16), strip_rows=2)
    out = []
    for nic_alg in ("exchange", "tree"):
        params = default_params(cfg.params).with_(nic_algorithm=nic_alg)
        report = _sanitized_spmd(4, sync_workload, "nic", cfg, params=params)
        out.append((f"nic[{nic_alg}]", report))
    for kind, target, label in (
        ("nic", 1, "nic[crash=nic]"),
        ("node", 2, "nic[crash=node]"),
    ):
        scenario = Scenario(
            seed=0,
            nprocs=6,
            procs_per_node=2,
            workload="strips",
            barrier_algorithm="nic",
            nic_algorithm="exchange",
            phases=("puts", "barrier", "puts", "barrier"),
            cells=4,
            crashes=((kind, target, 40.0),),
        )
        out.append((label, _sanitized_scenario(scenario)))
    return out


def _check_partition() -> List[Tuple[str, SanReport]]:
    """Partition windows cutting lock/barrier traffic, then healing.

    Exercises the quorum-membership vocabulary end to end:
    ``proc_excluded`` / ``partition_heal`` / ``proc_rejoined`` /
    ``sync_frozen`` emissions, live-lease revocation with fencing
    (``lease_revoked live=True`` followed by either a clean fenced
    release or the split-brain rule firing), and the minority-write
    quarantine in the race detector.  A clean tree reports zero
    violations: the fencing token rejects the stale release and the
    rejoin resync replays the regenerated token view, so no split-brain
    rule should ever fire here.
    """
    from ..fuzz.scenario import Scenario

    out = []
    for lock_kind, label in (("naimi", "partition[token]"), ("mcs", "partition[mcs]")):
        scenario = Scenario(
            seed=0,
            nprocs=6,
            procs_per_node=2,
            workload="mixed",
            barrier_algorithm="exchange",
            lock_kind=lock_kind,
            phases=("puts", "lock", "barrier", "puts", "barrier"),
            cells=4,
            lock_iters=2,
            partitions=(((2,), 80.0, 700.0),),
        )
        out.append((label, _sanitized_scenario(scenario)))
    return out


def _check_topo() -> List[Tuple[str, SanReport]]:
    """Topology-aware barriers on a two-level hierarchy (PR 9).

    Runs the put+barrier fuzz workload with each of the k-ary tree,
    dissemination, and two-level node-leader algorithms under a
    ``two_level(2)`` hierarchy at N=6 (ppn=2).  Each algorithm emits
    ``coll_enter``/``coll_exit`` plus the generic barrier bracketing, so
    the happens-before engine checks every put is fenced before the
    epoch's reads regardless of which level the completing message
    crossed.
    """
    from ..fuzz.scenario import Scenario

    out = []
    for algorithm in ("kary", "dissemination", "twolevel"):
        scenario = Scenario(
            seed=0,
            nprocs=6,
            procs_per_node=2,
            workload="strips",
            barrier_algorithm=algorithm,
            phases=("puts", "barrier", "puts", "barrier"),
            cells=4,
            hier_arity=2,
        )
        out.append((f"topo[{algorithm}]", _sanitized_scenario(scenario)))
    return out


_RUNNERS = {
    "fig7": _check_fig7,
    "locks": _check_locks,
    "faultbench": _check_faultbench,
    "chaos": _check_chaos,
    "nic": _check_nic,
    "partition": _check_partition,
    "topo": _check_topo,
}


def run_sanitized_target(target: str = "all") -> List[Tuple[str, SanReport]]:
    """Run the monitored workload(s) for ``target``.

    Returns ``[(label, report), ...]``; a clean tree has ``report.ok()``
    true for every label.
    """
    if target == "all":
        names = TARGETS
    elif target in _RUNNERS:
        names = (target,)
    else:
        raise ValueError(
            f"unknown check target {target!r}; expected one of "
            f"{TARGETS + ('all',)}"
        )
    results: List[Tuple[str, SanReport]] = []
    for name in names:
        results.extend(_RUNNERS[name]())
    return results
