#!/usr/bin/env python3
"""Run the benchmark: one workload (the driver's interface) or all seven.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--quick]     # all seven
    python3 perfbench/run.py --selfcheck                            # A/A run

One workload run is a closed loop with one client: this process runs one
simulation at a time.  It makes the workload's cells from ``--seed`` and runs
the body once; that first pass is the one whose outputs are checked.  Then

* ``--trace 0``: keeps running the cells round-robin until ``--seconds`` have
  passed, sets up in several fresh interpreters (``setup_s``, their median)
  and reports every end-to-end metric.  ``ops_per_s`` is the body's op count
  over the sum of each cell's best host seconds; cluster construction is
  outside the timed region.
* ``--trace 1``: runs the body once more untraced and once under the
  per-layer profiler, then the layer ladder and the host anchor, and reports
  every per-layer metric.  A metric that another workload owns reads 0.

Every later pass must reproduce the first pass's simulated results and
counters exactly; a cell that does not, raises, or fails the workload's check
counts all its ops as failed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when ``correct`` is false.

Metric names and units are read from ``BENCHMARK.json``, the one place that
lists them.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.ladder import run_ladder  # noqa: E402
from perfbench.layers import LAYER_NAMES, OTHER, LayerProfile  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    COUNTERS,
    HOST_PREFIX,
    WORKLOADS,
    Cell,
    Failures,
    Sim,
    Workload,
)

#: Fresh interpreters per ``setup_s`` measurement (the median is reported).
SETUP_PROBES = 5
#: Full passes made even when ``--seconds`` is already spent.
MIN_PASSES = 2
#: The run gives up (every op failed) after this long; the driver's limit
#: for one run is 180 s.
WATCHDOG_S = 160

#: Units of host-clock metrics; everything else must repeat exactly.
HOST_UNITS = frozenset({"s", "ms", "us", "ops/s", "MiB"})
HOST_RATIOS = frozenset({"trace.overhead_ratio", "host.events_per_anchor_op"})


class WatchdogExpired(BaseException):
    """The per-run watchdog fired (not an ``Exception``: program code that
    catches broadly must not swallow it)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def repeats_exactly(name: str, unit: str) -> bool:
    """Whether two runs with the same seed must agree on this metric."""
    return unit not in HOST_UNITS and name not in HOST_RATIOS


# -- running cells --------------------------------------------------------------


@dataclass
class Sample:
    """One execution of one cell."""

    host_s: float
    #: Simulated results plus the counters read from the runtime.
    sim: Optional[Sim]
    error: Optional[str] = None


def read_counters(runtime) -> Dict[str, float]:
    """Public counters of one finished :class:`ClusterRuntime`, by metric name."""
    fabric = runtime.fabric.stats
    servers = [server.stats for server in runtime.servers.values()]
    armcis = [armci.stats for armci in runtime.armcis.values()]
    return {
        "sim.core.events": runtime.env.events_processed,
        "net.fabric.messages": fabric.messages,
        "net.fabric.bytes": fabric.bytes,
        "net.fabric.inter_node": fabric.inter_node,
        "net.fabric.intra_node": fabric.intra_node,
        "net.reliable.retransmits": fabric.retransmits,
        "net.reliable.timeouts": fabric.timeouts,
        "net.reliable.acks": fabric.acks,
        "net.reliable.dup_suppressed": fabric.dup_suppressed,
        "runtime.server.requests": sum(s.requests for s in servers),
        "runtime.server.busy_us": sum(s.busy_us for s in servers),
        "runtime.server.wakes": sum(s.wakes for s in servers),
        "runtime.server.spins": sum(s.spins for s in servers),
        "runtime.server.elapsed_us": runtime.env.now * len(servers),
        "armci.api.puts_remote": sum(a["puts_remote"] for a in armcis),
        "armci.api.rmws_remote": sum(a["rmws_remote"] for a in armcis),
        "armci.api.barriers": sum(a["barriers"] for a in armcis),
        "armci.api.credit_stalls": sum(a.get("credit_stalls", 0) for a in armcis),
    }


def run_cell(cell: Cell, profile: Optional[LayerProfile] = None) -> Sample:
    """Build (untimed) and run (timed) one cell; an exception is a failure
    of this cell, not of the run."""
    start = time.perf_counter()
    try:
        state = cell.build()
        # Earlier cells' clusters die here, outside the timed and traced
        # region: a server generator finalized mid-run would be billed (as
        # host time and as a call) to whichever cell happened to be running.
        gc.collect()
        start = time.perf_counter()
        if profile is None:
            sim, runtime = cell.run(state)
        else:
            sim, runtime = profile.call(cell.run, state)
        host_s = time.perf_counter() - start
        if runtime is not None:
            sim[COUNTERS] = read_counters(runtime)
        return Sample(host_s, sim)
    except Exception as exc:  # DeadlockError, a program's assertion, ...
        return Sample(
            time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
        )


def run_pass(
    cells: List[Cell], profile: Optional[LayerProfile] = None
) -> Dict[str, Sample]:
    return {cell.name: run_cell(cell, profile) for cell in cells}


def judge(
    workload: Workload, cells: List[Cell], samples: Dict[str, Sample], quick: bool
) -> Failures:
    """Failed ops per cell of one pass: cells that raised, cells that lost
    samples, and whatever the workload's own check rejects."""
    ops = {cell.name: cell.ops for cell in cells}
    failures: Failures = {}
    for cell in cells:
        sample = samples[cell.name]
        if sample.error is not None:
            failures[cell.name] = (cell.ops, sample.error)
        elif sample.sim.get("samples", cell.ops) != cell.ops:
            failures[cell.name] = (
                cell.ops,
                f"{sample.sim['samples']} samples returned, expected {cell.ops}",
            )
    raised = [name for name, sample in samples.items() if sample.error is not None]
    if raised:
        # The workload's check reads every cell; without them nothing else
        # can be vouched for either.
        why = f"unchecked: cell {raised[0]} raised"
        checked: Failures = {name: (count, why) for name, count in ops.items()}
    else:
        sims = {name: sample.sim for name, sample in samples.items()}
        try:
            checked = workload.check(sims, ops, quick)
        except Exception as exc:
            why = f"check raised {type(exc).__name__}: {exc}"
            checked = {name: (count, why) for name, count in ops.items()}
    for name, failure in checked.items():
        failures.setdefault(name, failure)
    return failures


def exact(sim: Sim) -> Sim:
    """The part of a cell's results that must repeat exactly."""
    return {k: v for k, v in sim.items() if not k.startswith(HOST_PREFIX)}


class Tally:
    """Ops attempted and failed over every pass, with the reasons."""

    def __init__(self, first: Dict[str, Sample], first_failures: Failures):
        self.first = first
        self.first_failures = first_failures
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = [
            f"{name}: {ops} ops failed: {why}"
            for name, (ops, why) in first_failures.items()
        ]

    def count(self, cell: Cell, sample: Sample, label: str) -> None:
        """Count one execution; a later pass inherits the first pass's
        verdict when it reproduces its results, and fails outright otherwise."""
        self.attempted += cell.ops
        reference = self.first[cell.name]
        if sample is reference or (
            sample.sim is not None
            and reference.sim is not None
            and exact(sample.sim) == exact(reference.sim)
        ):
            self.failed += self.first_failures.get(cell.name, (0, ""))[0]
        else:
            self.failed += cell.ops
            why = sample.error or "simulated results differ from the first pass"
            self.notes.append(f"{cell.name} ({label}): {why}")


# -- the two kinds of run -------------------------------------------------------


def self_command(workload: str, seed: int, quick: bool, *options: str) -> List[str]:
    """This script on one workload, for a fresh interpreter."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve())]
    command += ["--workload", workload, "--seed", str(seed), *options]
    return command + ["--quick"] if quick else command


def measure_setup(workload: str, seed: int, quick: bool) -> float:
    """Median wall seconds of a fresh interpreter that imports ``repro``,
    makes the workload's inputs and builds every cell's cluster once."""
    command = self_command(workload, seed, quick, "--setup-probe")
    times = []
    for _ in range(1 if quick else SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def more_passes(
    cells: List[Cell],
    first: Dict[str, Sample],
    deadline: float,
    min_passes: int,
    tally: Tally,
) -> Dict[str, List[float]]:
    """After the first pass, keep running the cells round-robin until
    ``deadline`` (and until ``min_passes`` full passes exist); returns the
    host seconds of every execution of each cell, the first included."""
    host = {cell.name: [first[cell.name].host_s] for cell in cells}
    passes = 1
    while True:
        for cell in cells:
            if passes >= min_passes and time.perf_counter() >= deadline:
                return host
            sample = run_cell(cell)
            tally.count(cell, sample, f"pass {passes + 1}")
            host[cell.name].append(sample.host_s)
        passes += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    name: str,
    cells: List[Cell],
    first: Dict[str, Sample],
    deadline: float,
    seed: int,
    quick: bool,
    tally: Tally,
) -> Dict[str, float]:
    host = more_passes(cells, first, deadline, 1 if quick else MIN_PASSES, tally)
    # Best of n per cell, as bench_simkernel.py and the anchor do: on a
    # shared box the noise is one-sided (slow phases lasting seconds), and on
    # the same samples the sum of cell minima spread 7.7% across ten runs
    # where the sum of cell medians spread 13%.
    body_s = sum(min(times) for times in host.values())
    n = min(len(times) for times in host.values())
    print(f"[{name}] n={n} full passes; body {body_s:.3f} s (sum of best cell times)")
    return {
        "ops_per_s": sum(cell.ops for cell in cells) / body_s,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": measure_setup(name, seed, quick),
    }


def counter_metrics(
    sims: Dict[str, Sim], ops: int, host_s: float
) -> Dict[str, float]:
    """Body totals of the outside-read counters and the ratios derived from
    them; empty on workloads whose runtimes live inside the program."""
    if not all(COUNTERS in sim for sim in sims.values()):
        return {}
    out: Dict[str, float] = {}
    for sim in sims.values():
        for key, value in sim[COUNTERS].items():
            out[key] = out.get(key, 0) + value
    elapsed = out.pop("runtime.server.elapsed_us")
    events = out["sim.core.events"]
    frames = out["net.fabric.messages"] + out["net.reliable.retransmits"]
    out["sim.core.events_per_op"] = events / ops
    out["sim.core.host_us_per_event"] = host_s * 1e6 / events
    out["net.reliable.useful_frame_ratio"] = out["net.fabric.messages"] / frames
    out["runtime.server.utilization"] = out["runtime.server.busy_us"] / elapsed
    return out


def load_measure_anchor():
    """The calibrated host-speed anchor of ``bench_simkernel.py`` (a pinned
    pure-Python loop with the kernel's operation mix), loaded from that
    script so there is one anchor, not two."""
    script = ROOT / "benchmarks" / "perf" / "bench_simkernel.py"
    spec = importlib.util.spec_from_file_location("bench_simkernel", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.measure_anchor


def per_layer(
    workload: Workload,
    cells: List[Cell],
    first: Dict[str, Sample],
    quick: bool,
    tally: Tally,
) -> Dict[str, float]:
    measure_anchor = load_measure_anchor()
    anchor = measure_anchor(3)
    untraced = run_pass(cells)
    profile = LayerProfile()
    traced = run_pass(cells, profile)
    for label, samples in (("untraced pass", untraced), ("traced pass", traced)):
        for cell in cells:
            tally.count(cell, samples[cell.name], label)

    sims = {name: sample.sim or {} for name, sample in first.items()}
    host = {
        name: min(sample.host_s, untraced[name].host_s)
        for name, sample in first.items()
    }
    untraced_s = sum(host.values())
    out: Dict[str, float] = {}
    if all(sample.sim is not None for sample in first.values()):
        out.update(workload.report(sims, host))
        out.update(
            counter_metrics(sims, sum(cell.ops for cell in cells), untraced_s)
        )
    self_s, calls = profile.totals()
    for layer in LAYER_NAMES:
        out[f"{layer}.host_self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out[f"{OTHER}.host_self_s"] = self_s[OTHER]
    out["trace.overhead_ratio"] = (
        sum(sample.host_s for sample in traced.values()) / untraced_s
    )
    out.update(run_ladder(0.02 if quick else 1.0))
    anchor = max(anchor, measure_anchor(3))
    out["host.anchor_ops_per_s"] = anchor
    if "sim.core.events" in out:
        out["host.events_per_anchor_op"] = (
            out["sim.core.events"] / untraced_s / anchor
        )
    return out


def _on_alarm(_signum, _frame):
    raise WatchdogExpired()


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> Tuple[dict, Dict[str, float]]:
    """One driver-style run; returns the result object (the last output line)
    and the metrics this run computed itself (the rest of the list reads 0)."""
    spec = load_spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    workload = WORKLOADS[name]
    cells = workload.cells(seed, quick)
    body_ops = sum(cell.ops for cell in cells)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    try:
        deadline = time.perf_counter() + seconds
        first = run_pass(cells)
        tally = Tally(first, judge(workload, cells, first, quick))
        for cell in cells:
            tally.count(cell, first[cell.name], "first pass")
        if trace:
            computed = per_layer(workload, cells, first, quick, tally)
        else:
            computed = end_to_end(name, cells, first, deadline, seed, quick, tally)
    except WatchdogExpired:
        print(f"[{name}] watchdog: no result after {WATCHDOG_S} s; every op failed")
        return {"correct": False, "attempted": body_ops, "failed": body_ops,
                "metrics": {}}, {}  # fmt: skip
    finally:
        signal.alarm(0)

    for note in tally.notes:
        print(f"[{name}] FAILED {note}")
    unlisted = sorted(set(computed) - {metric["name"] for metric in listed})
    if unlisted:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unlisted}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {
                "value": computed.get(metric["name"], 0.0),
                "unit": metric["unit"],
            }
            for metric in listed
        },
    }
    return result, computed


def setup_probe(name: str, seed: int, quick: bool) -> None:
    """What ``setup_s`` times: make the inputs, build every cell once."""
    for cell in WORKLOADS[name].cells(seed, quick):
        cell.build()


# -- all workloads, and the A/A self-check ----------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One workload in its own fresh interpreter; the parsed result object."""
    command = self_command(
        name, seed, quick, "--seconds", str(seconds), "--trace", str(trace)
    )
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(f"[{name}] no result (exit code {proc.returncode})")
    return result


def print_metrics(name: str, result: dict) -> None:
    zero = 0
    for metric, entry in result["metrics"].items():
        if entry["value"] == 0:
            zero += 1
            continue
        print(f"{name:20s} {metric:38s} {entry['value']:>16.6g} {entry['unit']}")
    share = result["failed"] / max(result["attempted"], 1)
    print(
        f"{name:20s} {'ops failed':38s} "
        f"{result['failed']:>9d}/{result['attempted']:<6d} ({share:.2%})"
        + (f"   [{zero} metrics read 0: not this workload's]" if zero else "")
    )


def run_all(seed: int, seconds: float, quick: bool) -> Dict[str, Dict[int, dict]]:
    """Every workload, untraced then traced; prints every metric by name."""
    results: Dict[str, Dict[int, dict]] = {}
    for name in WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            result = run_child(name, seed, seconds, trace, quick)
            results[name][trace] = result
            print_metrics(name, result)
    return results


def all_correct(results: Dict[str, Dict[int, dict]]) -> bool:
    return all(r["correct"] for runs in results.values() for r in runs.values())


def selfcheck(seed: int, seconds: float, quick: bool) -> bool:
    """Run everything twice on the same tree; every end-to-end metric must
    stay inside its bound and every exact metric must not move at all."""
    spec = load_spec()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    first = run_all(seed, seconds, quick)
    second = run_all(seed, seconds, quick)
    ok = all_correct(first) and all_correct(second)
    print("\nA/A self-check: second run against the first")
    for name in WORKLOADS:
        for metric, (bound, better) in bounds.items():
            a = first[name][0]["metrics"].get(metric, {}).get("value")
            b = second[name][0]["metrics"].get(metric, {}).get("value")
            if not a or b is None:
                ok = False
                print(f"{name:20s} {metric:14s} missing")
                continue
            worse = (a - b) / a if better == "higher" else (b - a) / a
            verdict = "ok" if worse <= bound else "EXCEEDS BOUND"
            ok = ok and worse <= bound
            print(
                f"{name:20s} {metric:14s} {a:>14.6g} -> {b:<14.6g} "
                f"worse by {worse:+.2%} (bound {bound:.0%}) {verdict}"
            )
        moved = [
            metric
            for metric, entry in first[name][1]["metrics"].items()
            if repeats_exactly(metric, entry["unit"])
            and second[name][1]["metrics"].get(metric, {}).get("value")
            != entry["value"]
        ]
        ok = ok and not moved
        print(f"{name:20s} exact metrics moved: {', '.join(moved) or 'none'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload only and end with the result line")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the fuzz scenarios and seeds the fault stream")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed passes of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one timed pass (for the tests)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run all workloads twice and compare (A/A)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.quick)
        return 0
    if args.selfcheck:
        return 0 if selfcheck(args.seed, args.seconds, args.quick) else 1
    if args.workload is None:
        return 0 if all_correct(run_all(args.seed, args.seconds, args.quick)) else 1
    result, _computed = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
