"""The seven benchmark workloads.

A workload is a fixed list of *cells*.  A cell has an untimed ``build`` (make
the inputs and the :class:`ClusterRuntime`) and a timed ``run`` (drive the
program through the stack's public functions).  ``run`` returns the cell's
simulated results — numbers that must repeat exactly for a fixed seed — and,
where the benchmark built it, the runtime whose public counters are then read
from outside.  ``check`` turns one pass's results into the number of failed
ops per cell.

Why each workload exists is recorded once, in ``BENCHMARK.json`` and the
README; the docstrings here say what is run and what is checked.

Importing this module does no work; ``repro`` is imported by the builders.
"""

from __future__ import annotations

import csv
import hashlib
import pathlib
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: One cell's simulated results: name -> number/string, equal across repeats.
#: Keys that start with :data:`HOST_PREFIX` hold host-clock detail instead
#: and are left out of that comparison.
#: Under :data:`COUNTERS` the harness adds the public counters it read from
#: the runtime a cell handed back (metric name -> count).
Sim = Dict[str, Any]
HOST_PREFIX = "host:"
COUNTERS = "counters"
#: ``check`` output: cell name -> (failed ops, why).
Failures = Dict[str, Tuple[int, str]]


@dataclass(frozen=True)
class Cell:
    name: str
    #: Operations this cell performs (the workload's op is defined per workload).
    ops: int
    #: Untimed: returns whatever ``run`` needs.
    build: Callable[[], Any]
    #: Timed: returns ``(sim, runtime or None)``.
    run: Callable[[Any], Tuple[Sim, Any]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``cells(seed, quick)``: the body, in run order.
    cells: Callable[[int, bool], List[Cell]]
    #: ``check(sims, ops, quick)``: failed ops per cell for one pass's
    #: results (``ops``: cell name -> op count).  The harness itself fails a
    #: cell whose ``samples`` differ from its op count.
    check: Callable[[Dict[str, Sim], Dict[str, int], bool], Failures]
    #: ``report(sims, host_s)``: this workload's per-cell metrics, from one
    #: pass's results and the host seconds of each cell.
    report: Callable[[Dict[str, Sim], Dict[str, float]], Dict[str, float]]


def _mean(values) -> float:
    return sum(values) / len(values)


def _pooled(per_rank) -> List[float]:
    return [sample for samples in per_rank for sample in samples]


def _read_csv(name: str) -> List[Dict[str, str]]:
    with open(ROOT / "results" / name, newline="") as handle:
        return list(csv.DictReader(handle))


def check_reference(
    measured: Dict[str, float], reference: Dict[str, str]
) -> Optional[str]:
    """Compare values to reference strings at the strings' printed precision.

    Returns ``None`` on a match, else a one-line description of the first
    mismatch (the cell's ops then count as failed).
    """
    for key, want in reference.items():
        decimals = len(want.partition(".")[2])
        got = f"{measured[key]:.{decimals}f}"
        if got != want:
            return f"{key}: simulated {got}, reference {want}"
    return None


# -- fig7_putsync -------------------------------------------------------------

FIG7_MODES = ("current", "new")


def _fig7_sizes(quick: bool):
    return ((2, 4), 5) if quick else ((2, 4, 8, 16), 100)


def _fig7_cells(seed: int, quick: bool) -> List[Cell]:
    """Exactly ``repro fig7``: both GA_Sync modes over the paper's process
    counts, 100 iterations, myrinet2000."""
    from repro.experiments.common import default_params
    from repro.experiments.fig7_sync import Fig7Config, sync_workload
    from repro.runtime.cluster import ClusterRuntime

    nprocs_list, iterations = _fig7_sizes(quick)
    params = default_params(None)

    def cell(mode: str, nprocs: int) -> Cell:
        cfg = Fig7Config(nprocs_list=(nprocs,), iterations=iterations, params=params)

        def run(runtime):
            samples = _pooled(runtime.run_spmd(sync_workload, mode, cfg))
            return {"sync_us": _mean(samples), "samples": len(samples)}, runtime

        return Cell(
            name=f"{mode}.n{nprocs}",
            ops=nprocs * iterations,
            build=lambda: ClusterRuntime(nprocs, params=params),
            run=run,
        )

    return [cell(mode, n) for mode in FIG7_MODES for n in nprocs_list]


def fig7_reference() -> Dict[str, Dict[str, str]]:
    """``results/fig7_ga_sync.csv`` as cell name -> {"sync_us": text}."""
    return {
        f"{row['variant']}.n{row['nprocs']}": {"sync_us": row["microseconds"]}
        for row in _read_csv("fig7_ga_sync.csv")
        if row["variant"] in FIG7_MODES
    }


def _fig7_check(sims, ops, quick: bool, reference=None) -> Failures:
    """Each cell equals the checked-in ``results/fig7_ga_sync.csv`` (quick
    sizes have no reference: there the new GA_Sync must beat the current one
    from 4 processes up)."""
    failures: Failures = {}
    if reference is None and not quick:
        reference = fig7_reference()
    for name, sim in sims.items():
        mode, _, n = name.partition(".n")
        if quick:
            if mode == "new" and int(n) >= 4 and not (
                sim["sync_us"] < sims[f"current.n{n}"]["sync_us"]
            ):
                failures[name] = (ops[name], "new GA_Sync not faster than current")
        else:
            bad = check_reference(sim, reference[name])
            if bad:
                failures[name] = (ops[name], bad)
    return failures


def _fig7_report(sims, host_s) -> Dict[str, float]:
    top = max(int(name.partition(".n")[2]) for name in sims)
    current = sims[f"current.n{top}"]["sync_us"]
    new = sims[f"new.n{top}"]["sync_us"]
    return {
        "ga.sync.current.host_s": sum(
            s for name, s in host_s.items() if name.startswith("current.")
        ),
        "ga.sync.new.host_s": sum(
            s for name, s in host_s.items() if name.startswith("new.")
        ),
        "ga.sync.current.n16.sim_us": current,
        "ga.sync.new.n16.sim_us": new,
        "ga.sync.factor_n16": current / new,
        "sim.us_per_op": new,
    }


# -- locks_contended ----------------------------------------------------------

LOCK_KINDS = ("hybrid", "mcs")


def _lock_sizes(quick: bool):
    return ((1, 2, 4), 20) if quick else ((1, 2, 4, 8, 16), 400)


def _lock_cells(seed: int, quick: bool) -> List[Cell]:
    """Exactly ``repro locks``: the hybrid server lock and the MCS lock under
    1..16 contenders.  One process is the paper's two-case average (lock
    local, lock remote), run as two cells on a 2-process cluster."""
    from repro.experiments.common import default_params
    from repro.experiments.lockbench import LockBenchConfig, lock_workload
    from repro.runtime.cluster import ClusterRuntime

    nprocs_list, iterations = _lock_sizes(quick)
    params = default_params(None)
    cfg = LockBenchConfig(nprocs_list=nprocs_list, iterations=iterations, params=params)

    def cell(name: str, kind: str, nprocs: int, home: int, active) -> Cell:
        contenders = len(active) if active is not None else nprocs

        def run(runtime):
            per_rank = [
                entry
                for entry in runtime.run_spmd(
                    lock_workload, kind, home, cfg, active, None
                )
                if entry is not None
            ]
            acquire = _pooled(entry[0] for entry in per_rank)
            release = _pooled(entry[1] for entry in per_rank)
            sim = {
                "acquire_us": _mean(acquire),
                "release_us": _mean(release),
                "samples": len(acquire),
            }
            return sim, runtime

        return Cell(
            name=name,
            ops=contenders * iterations,
            build=lambda: ClusterRuntime(nprocs, params=params),
            run=run,
        )

    cells = []
    for kind in LOCK_KINDS:
        for n in nprocs_list:
            if n == 1:
                cells.append(cell(f"{kind}.n1.local", kind, 2, 0, {0}))
                cells.append(cell(f"{kind}.n1.remote", kind, 2, 1, {0}))
            else:
                cells.append(cell(f"{kind}.n{n}", kind, n, 0, None))
    return cells


def _lock_points(sims: Dict[str, Sim]) -> Dict[str, Dict[str, float]]:
    """``kind.nN`` -> acquire/release/roundtrip, folding the two N=1 cases."""
    points: Dict[str, Dict[str, float]] = {}
    for name, sim in sims.items():
        if name.endswith(".local"):
            other = sims[name[: -len("local")] + "remote"]
            acquire = (sim["acquire_us"] + other["acquire_us"]) / 2
            release = (sim["release_us"] + other["release_us"]) / 2
            name = name[: -len(".local")]
        elif name.endswith(".remote"):
            continue
        else:
            acquire, release = sim["acquire_us"], sim["release_us"]
        points[name] = {
            "acquire_us": acquire,
            "release_us": release,
            "roundtrip_us": acquire + release,
        }
    return points


def locks_reference() -> Dict[str, Dict[str, str]]:
    """``results/figs8_9_10_locks.csv`` as point name -> column texts."""
    return {
        f"{row['kind']}.n{row['nprocs']}": {
            key: row[key] for key in ("acquire_us", "release_us", "roundtrip_us")
        }
        for row in _read_csv("figs8_9_10_locks.csv")
    }


def _lock_check(sims, ops, quick: bool, reference=None) -> Failures:
    """Each point equals the checked-in ``results/figs8_9_10_locks.csv``
    (quick sizes: MCS must beat the hybrid lock's round trip at the largest
    process count).  Mutual exclusion is asserted by the lock program itself."""
    failures: Failures = {}
    if reference is None and not quick:
        reference = locks_reference()
    points = _lock_points(sims)

    def cells_of(point: str) -> List[str]:
        return [n for n in sims if n == point or n.startswith(point + ".")]

    for point, values in points.items():
        bad = None
        if not quick:
            bad = check_reference(values, reference[point])
        elif point == f"mcs.n{_lock_sizes(True)[0][-1]}":
            hybrid = points["hybrid" + point[len("mcs"):]]
            if not values["roundtrip_us"] < hybrid["roundtrip_us"]:
                bad = "mcs round trip not faster than hybrid"
        if bad:
            for name in cells_of(point):
                failures[name] = (ops[name], bad)
    return failures


def _lock_report(sims, host_s) -> Dict[str, float]:
    points = _lock_points(sims)
    top = 8 if "mcs.n8" in points else max(
        int(p.partition(".n")[2]) for p in points
    )
    mcs, hybrid = points[f"mcs.n{top}"], points[f"hybrid.n{top}"]
    return {
        "locks.hybrid.host_s": sum(
            s for name, s in host_s.items() if name.startswith("hybrid.")
        ),
        "locks.mcs.host_s": sum(
            s for name, s in host_s.items() if name.startswith("mcs.")
        ),
        "locks.hybrid.n8.roundtrip_sim_us": hybrid["roundtrip_us"],
        "locks.mcs.n8.roundtrip_sim_us": mcs["roundtrip_us"],
        "locks.mcs.n8.acquire_sim_us": mcs["acquire_us"],
        "locks.mcs.n8.release_sim_us": mcs["release_us"],
        "locks.factor_n8": hybrid["roundtrip_us"] / mcs["roundtrip_us"],
        "sim.us_per_op": mcs["roundtrip_us"],
    }


# -- barrier_flat_n1024 / barrier_hier_n1024 ----------------------------------

#: Scalebench variant -> (GA_Sync mode, NetworkParams overrides).
BARRIER_VARIANTS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "host-exchange": ("new", {}),
    "nic-exchange": ("nic", {"nic_algorithm": "exchange"}),
    "nic-tree": ("nic", {"nic_algorithm": "tree"}),
    "dissemination": ("dissemination", {}),
    "kary": ("kary", {}),
    "twolevel": ("twolevel", {}),
}
FLAT_VARIANTS = ("host-exchange", "nic-exchange", "nic-tree")
HIER_VARIANTS = ("host-exchange", "dissemination", "kary", "twolevel")
HIER_TOPO = "switch:16:26::2.0"
HIER_PPN = 16
HIER_RADIX = 8


def _barrier_cell(name, variant, nprocs, ppn, base_params) -> Cell:
    """One per-rank scalebench cell: an 8-cell put to the ring neighbor,
    then one timed GA_Sync, on every rank."""
    from repro.experiments.scalebench import ScaleBenchConfig, scale_workload
    from repro.runtime.cluster import ClusterRuntime

    mode, overrides = BARRIER_VARIANTS[variant]
    params = base_params.with_(**overrides) if overrides else base_params
    cfg = ScaleBenchConfig(
        nprocs_list=(nprocs,), iterations=1, procs_per_node=ppn, params=params
    )

    def run(runtime):
        samples = _pooled(runtime.run_spmd(scale_workload, mode, cfg))
        return {"sync_us": _mean(samples), "samples": len(samples)}, runtime

    return Cell(
        name=name,
        ops=nprocs,
        build=lambda: ClusterRuntime(nprocs, procs_per_node=ppn, params=params),
        run=run,
    )


def _coalesced_cell(name, nprocs, ppn, params) -> Cell:
    """A ``--coalesce`` twolevel cell: one actor per node, intra-node phases
    charged analytically, the leaders' exchange simulated."""
    from repro.experiments.scalebench import ScaleBenchConfig
    from repro.runtime.cluster import ClusterRuntime
    from repro.topo.coalesce import coalesced_scale_workload

    nnodes = nprocs // ppn
    cfg = ScaleBenchConfig(
        nprocs_list=(nprocs,),
        iterations=1,
        procs_per_node=ppn,
        params=params,
        coalesce=True,
    )

    def run(runtime):
        samples = _pooled(
            runtime.run_spmd(coalesced_scale_workload, "exchange", cfg, ppn)
        )
        return {"sync_us": _mean(samples), "samples": len(samples)}, runtime

    return Cell(
        name=name,
        ops=nnodes,
        build=lambda: ClusterRuntime(nnodes, procs_per_node=1, params=params),
        run=run,
    )


def _flat_cells(seed: int, quick: bool) -> List[Cell]:
    """Flat network, N=1024, one iteration per variant."""
    from repro.experiments.common import default_params

    nprocs = 64 if quick else 1024
    params = default_params(None)
    return [_barrier_cell(v, v, nprocs, 1, params) for v in FLAT_VARIANTS]


def _hier_sizes(quick: bool):
    return (512, 1024) if quick else (1024, 16384)


def _hier_cells(seed: int, quick: bool) -> List[Cell]:
    """16-node leaf switches under a 26 us, 2x-oversubscribed uplink, 16
    ranks per node, radix 8: four host algorithms per rank at N=1024, then
    the coalesced twolevel barrier at N=1024 and N=16384."""
    from repro.experiments.common import default_params
    from repro.topo.spec import parse_topo_spec

    small, large = _hier_sizes(quick)
    params = default_params(None).with_(
        hierarchy=parse_topo_spec(HIER_TOPO), tree_radix=HIER_RADIX
    )
    cells = [_barrier_cell(v, v, small, HIER_PPN, params) for v in HIER_VARIANTS]
    cells.append(_coalesced_cell("coalesce.small", small, HIER_PPN, params))
    cells.append(_coalesced_cell("coalesce.large", large, HIER_PPN, params))
    return cells


def _flat_check(sims, ops, quick: bool) -> Failures:
    """The NIC exchange beats the host exchange, which beats the NIC tree."""
    order = [sims[v]["sync_us"] for v in ("nic-exchange", "host-exchange", "nic-tree")]
    if order[0] < order[1] < order[2]:
        return {}
    return {
        v: (ops[v], "expected nic-exchange < host-exchange < nic-tree")
        for v in FLAT_VARIANTS
    }


#: Largest accepted |coalesced - per-rank| / per-rank at the small N.
COALESCE_TOLERANCE = 0.05


def _coalesce_rel_err(sims: Dict[str, Sim]) -> float:
    per_rank = sims["twolevel"]["sync_us"]
    return abs(sims["coalesce.small"]["sync_us"] - per_rank) / per_rank


def _hier_check(sims, ops, quick: bool) -> Failures:
    """Twolevel is the fastest of the four per-rank algorithms; the coalesced
    run is within 5% of the per-rank one."""
    failures: Failures = {}
    fastest = min(HIER_VARIANTS, key=lambda v: sims[v]["sync_us"])
    if fastest != "twolevel":
        failures["twolevel"] = (
            ops["twolevel"],
            f"{fastest} beat twolevel under {HIER_TOPO}",
        )
    if not _coalesce_rel_err(sims) < COALESCE_TOLERANCE:
        failures["coalesce.small"] = (
            ops["coalesce.small"],
            f"coalesced twolevel is {_coalesce_rel_err(sims):.1%} off the "
            "per-rank simulation",
        )
    return failures


def _barrier_report(sims, host_s, variants) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for v in variants:
        out[f"barrier.{v}.host_s"] = host_s[v]
        out[f"barrier.{v}.sim_us"] = sims[v]["sync_us"]
        out[f"barrier.{v}.events"] = sims[v][COUNTERS]["sim.core.events"]
    return out


def _flat_report(sims, host_s) -> Dict[str, float]:
    out = _barrier_report(sims, host_s, FLAT_VARIANTS)
    out["sim.us_per_op"] = sims["host-exchange"]["sync_us"]
    return out


def _hier_report(sims, host_s) -> Dict[str, float]:
    out = _barrier_report(sims, host_s, HIER_VARIANTS)
    out["topo.coalesce.n16384.host_s"] = host_s["coalesce.large"]
    out["topo.coalesce.n16384.sim_us"] = sims["coalesce.large"]["sync_us"]
    out["topo.coalesce.n16384.events"] = sims["coalesce.large"][COUNTERS][
        "sim.core.events"
    ]
    out["topo.coalesce.n1024.rel_err"] = _coalesce_rel_err(sims)
    out["sim.us_per_op"] = sims["twolevel"]["sync_us"]
    return out


# -- faults_reliable ----------------------------------------------------------

FAULT_RATES = (0.0, 0.02, 0.10)
FAULT_SEED_BASE = 20030422


def _fault_sizes(quick: bool):
    return (4, 4) if quick else (16, 32)


def _fault_name(rate: float) -> str:
    return f"drop{round(rate * 100):02d}"


def _fault_cells(seed: int, quick: bool) -> List[Cell]:
    """The put/acc/barrier assembly epoch of ``repro faults`` at three drop
    rates with the reliable transport on; ``--seed`` moves the fault stream."""
    from repro.experiments.faultbench import FaultBenchConfig, run_fault_point

    nprocs, epochs = _fault_sizes(quick)
    cfg = FaultBenchConfig(
        nprocs=nprocs, epochs=epochs, fault_seed=FAULT_SEED_BASE + seed
    )

    def cell(rate: float) -> Cell:
        def run(_state):
            epoch_us, states, runtime = run_fault_point(cfg, rate)
            digest = hashlib.sha256(repr(states).encode()).hexdigest()
            return {"epoch_us": epoch_us, "state": digest}, runtime

        return Cell(
            name=_fault_name(rate), ops=nprocs * epochs, build=lambda: None, run=run
        )

    return [cell(rate) for rate in FAULT_RATES]


def _fault_check(sims, ops, quick: bool) -> Failures:
    """Final memory and ``op_done`` of every rank equal the fault-free
    run's; the transport retransmits at 10% drop and never at 0%."""
    failures: Failures = {}
    clean = sims["drop00"]
    for name, sim in sims.items():
        if sim["state"] != clean["state"]:
            failures[name] = (ops[name], "end state diverged from the fault-free run")
    if clean[COUNTERS]["net.reliable.retransmits"] != 0:
        failures.setdefault("drop00", (ops["drop00"], "retransmits without faults"))
    if not sims["drop10"][COUNTERS]["net.reliable.retransmits"] > 0:
        failures.setdefault("drop10", (ops["drop10"], "no retransmits at 10% drop"))
    return failures


def _fault_report(sims, host_s) -> Dict[str, float]:
    return {
        "net.reliable.drop00.host_s": host_s["drop00"],
        "net.reliable.drop10.host_s": host_s["drop10"],
        "net.reliable.drop02.epoch_sim_us": sims["drop02"]["epoch_us"],
        "net.reliable.drop10.epoch_sim_us": sims["drop10"]["epoch_us"],
        "sim.us_per_op": sims["drop10"]["epoch_us"],
    }


# -- fuzz_monitored -----------------------------------------------------------

#: Scenario seeds 0..299 that fail the fuzz oracle at the commit that added
#: this benchmark (seed 39: a deadlock under raymond locks + 15% drop + a
#: rank crash).  The contract wants workloads on which no operation fails,
#: so the pool leaves them out; the tests keep seed 39 as a known-bad input.
FUZZ_KNOWN_FAILING = (
    39, 62, 72, 77, 111, 146, 179, 194, 199, 219, 247, 249, 267, 285, 290, 291,
)  # fmt: skip
FUZZ_POOL_END = 300
#: Scenarios run back to back in one cell: single scenarios (~10 ms, each
#: building a cluster) are too short to time one by one, and a batch carries
#: its share of the garbage collector's work.
FUZZ_BATCHES = 8


def fuzz_pool(quick: bool = False) -> List[int]:
    end = 24 if quick else FUZZ_POOL_END
    return [s for s in range(end) if s not in FUZZ_KNOWN_FAILING]


def fuzz_cell(name: str, scenario_seeds: List[int]) -> Cell:
    """A batch of fuzz scenarios, each under the RMCSan monitor and the
    end-state oracle."""
    from repro.fuzz import generate, run_scenario

    def run(scenarios):
        failed, states, events, host_s = [], hashlib.sha256(), 0, []
        for scenario in scenarios:
            start = time.perf_counter()
            outcome = run_scenario(scenario)
            host_s.append(time.perf_counter() - start)
            states.update(outcome.end_state_hash.encode())
            events += outcome.events_analyzed
            if not outcome.ok():
                failed.append(f"{scenario.seed} [{','.join(outcome.kinds())}]")
        sim = {
            "samples": len(scenarios),
            "failed": failed,
            "end_states": states.hexdigest(),
            "events_analyzed": events,
            HOST_PREFIX + "scenario_s": host_s,
        }
        return sim, None

    return Cell(
        name=name,
        ops=len(scenario_seeds),
        build=lambda: [generate(s) for s in scenario_seeds],
        run=run,
    )


def _fuzz_cells(seed: int, quick: bool) -> List[Cell]:
    """The 284 passing scenarios of fuzz seeds 0..299 in an order shuffled by
    ``--seed``, in 8 batches (the same work in every order, so runs with
    different seeds compare)."""
    pool = fuzz_pool(quick)
    random.Random(seed).shuffle(pool)
    batches = 2 if quick else FUZZ_BATCHES
    return [fuzz_cell(f"batch{i}", pool[i::batches]) for i in range(batches)]


def _fuzz_check(sims, ops, quick: bool) -> Failures:
    """``FuzzOutcome.ok()`` for every scenario; only the failing scenarios of
    a batch count as failed, named by scenario seed and violation kinds."""
    return {
        name: (len(sim["failed"]), "oracle violations: seeds " + ", ".join(sim["failed"]))
        for name, sim in sims.items()
        if sim["failed"]
    }


def _fuzz_report(sims, host_s) -> Dict[str, float]:
    times = sorted(
        t for sim in sims.values() for t in sim[HOST_PREFIX + "scenario_s"]
    )

    def percentile(q: float) -> float:
        return times[min(len(times) - 1, int(q * len(times)))] * 1e3

    return {
        "fuzz.scenario_host_ms_p50": percentile(0.50),
        "fuzz.scenario_host_ms_p90": percentile(0.90),
        "fuzz.failed_seeds": sum(len(sim["failed"]) for sim in sims.values()),
        "analysis.events_analyzed": sum(
            sim["events_analyzed"] for sim in sims.values()
        ),
    }


# -- mc_nic_barrier -----------------------------------------------------------

MC_TARGET = "nic-barrier"


def _mc_budget(quick: bool) -> int:
    return 10 if quick else 150


def _mc_cells(seed: int, quick: bool) -> List[Cell]:
    """RMCheck's DFS over the NIC fence+barrier at N=3, bounded to 150 judged
    schedules (the full 552-run exhaustion is ~8 s per repeat)."""
    from repro.mc import explore, get_target

    budget = _mc_budget(quick)

    def run(target):
        result = explore(
            target.scenario,
            window=target.window,
            budget=budget,
            sim_cap_us=target.sim_cap_us,
        )
        sim = {
            "ok": result.ok(),
            "kinds": ",".join(result.violation_kinds),
            "schedules_run": result.schedules_run,
            "pruned": result.pruned,
        }
        return sim, None

    return [
        Cell(name="explore", ops=budget, build=lambda: get_target(MC_TARGET), run=run)
    ]


def _mc_check(sims, ops, quick: bool) -> Failures:
    """No counterexample, and exactly the budgeted number of schedules judged."""
    budget = ops["explore"]
    sim = sims["explore"]
    if not sim["ok"]:
        return {"explore": (budget, f"counterexample [{sim['kinds']}]")}
    if sim["schedules_run"] != budget:
        return {
            "explore": (
                budget,
                f"{sim['schedules_run']} schedules judged, expected {budget}",
            )
        }
    return {}


def _mc_report(sims, host_s) -> Dict[str, float]:
    sim = sims["explore"]
    return {
        "mc.pruned": sim["pruned"],
        "mc.runs_per_judged": (sim["schedules_run"] + sim["pruned"])
        / max(sim["schedules_run"], 1),
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig7_putsync", _fig7_cells, _fig7_check, _fig7_report),
        Workload("locks_contended", _lock_cells, _lock_check, _lock_report),
        Workload("barrier_flat_n1024", _flat_cells, _flat_check, _flat_report),
        Workload("barrier_hier_n1024", _hier_cells, _hier_check, _hier_report),
        Workload("faults_reliable", _fault_cells, _fault_check, _fault_report),
        Workload("fuzz_monitored", _fuzz_cells, _fuzz_check, _fuzz_report),
        Workload("mc_nic_barrier", _mc_cells, _mc_check, _mc_report),
    )
}
