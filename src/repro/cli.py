"""Command-line entry point: regenerate any of the paper's figures.

Usage (installed as ``armci-repro``, or ``python -m repro``)::

    armci-repro fig7                # GA_Sync time + factor (Figure 7)
    armci-repro fig8                # lock request+release (Figure 8)
    armci-repro fig9                # lock acquire (Figure 9)
    armci-repro fig10               # lock release (Figure 10)
    armci-repro locks               # Figures 8-10 from one run
    armci-repro ablations           # all five ablation studies
    armci-repro faults              # sync cost + retry volume vs drop rate
    armci-repro chaos               # crash-stop kills + membership recovery
    armci-repro nic                 # host vs NIC-offloaded barrier ablation
    armci-repro scalebench          # barrier scaling to 1024 processes
    armci-repro all                 # everything above
    armci-repro fuzz                # randomized fault/crash scenario fuzzing
    armci-repro fig7 --iterations 100 --network gige
    armci-repro fig7 --jobs 4       # shard sweep cells over 4 workers
    armci-repro faults --drop-rate 0.05 --fault-seed 7 --retry-timeout 40
    armci-repro chaos --kill 5:60 --kill 6:900 --lock mcs --kill-seed 7
    armci-repro fuzz --seeds 200 --json-out fuzz.json
    armci-repro fuzz --replay 20    # deterministic re-run of one seed
    armci-repro fuzz --self-test    # validate the oracle on seeded mutants
    armci-repro mc                  # RMCheck: explore every named target
    armci-repro mc nic-barrier --budget 2000 --window 3
    armci-repro mc --scenario 7     # explore a fuzzer-generated scenario
    armci-repro mc --schedule ce.json   # replay a counterexample
    armci-repro mc --self-test      # find the seeded mutants by exploration

Fault options: ``--drop-rate`` enables seeded link-fault injection (with
the reliable ACK/retransmit layer) on *any* experiment — with the
``faults`` experiment it selects the sweep's single non-zero point;
``--fault-seed`` pins the fault RNG stream and ``--retry-timeout`` the
first retransmission timeout.

Chaos options: each ``--kill RANK:AT_US`` schedules a permanent crash-stop
failure of RANK at AT_US simulated microseconds.  Kills before the barrier
hold point strike mid-exchange inside ``ARMCI_Barrier()``; later kills
strike while RANK holds the contended lock (``--lock`` picks the
algorithm).  ``--kill-seed`` pins the heartbeat/detector RNG stream.
``--partition NODES:FROM_US:UNTIL_US`` cuts a node group (comma-separated)
off the fabric for the window — its ranks freeze on quorum loss and rejoin
with a state resync at the heal; ``--stall RANK:FROM_US:UNTIL_US`` pauses
one rank transiently.  Whenever faults or transients are injected the
reliable layer estimates its retransmission timeout adaptively
(Jacobson/Karn RTT estimation with a jittered cap); passing
``--retry-timeout`` pins the fixed timeout instead.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments import (
    Fig7Config,
    LockBenchConfig,
    run_fig7,
    run_lock_series,
)
from .experiments.ablations import (
    render_release_opt,
    run_crossover,
    run_fence_modes,
    run_release_opt,
    run_smp_handoff,
    run_wake_cost,
)
from .experiments.lockbench import comparison_from_series
from .net.params import _preset

__all__ = ["main"]


class _CliError(Exception):
    """A user-input problem: reported as one line on stderr, exit 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="armci-repro",
        description=(
            "Reproduce the figures of 'Optimizing Synchronization Operations "
            "for Remote Memory Communication Systems' (IPPS 2003) on a "
            "simulated Myrinet cluster."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=["fig7", "fig8", "fig9", "fig10", "locks", "ablations", "app",
                 "microbench", "fairness", "faults", "chaos", "nic",
                 "scalebench", "fuzz", "mc", "validate", "check", "all"],
        help="which experiment to regenerate (or 'check' to run RMCSan, "
        "'fuzz' to run the scenario fuzzer, 'mc' to run RMCheck schedule "
        "exploration)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help=(
            "for 'check': which workload to sanitize "
            "(fig7, locks, faultbench, chaos, nic, partition; default all); "
            "for 'mc': which model-checking target to explore "
            "(see repro.mc.targets; default all)"
        ),
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="with 'check': run the static lint pass instead of the "
        "dynamic happens-before checker",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="with 'check --lint': exit nonzero when there are findings "
        "(CI mode; the default is report-only)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "dump the RMCSan protocol-event trace of every simulated run "
            "to PATH as JSON lines (enables event collection)"
        ),
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="timed iterations per configuration (default: fig7 100, locks 400)",
    )
    parser.add_argument(
        "--network",
        default="myrinet2000",
        help="network preset: myrinet2000 (default), gige, quadrics",
    )
    parser.add_argument(
        "--procs",
        type=int,
        nargs="+",
        default=None,
        help="process counts to sweep (default: paper's)",
    )
    parser.add_argument(
        "--ppn",
        type=int,
        default=1,
        help="processes per SMP node (default 1, as in the paper's runs)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "shard independent sweep cells over N worker processes "
            "(0 = one per core); simulated results are identical to a "
            "serial run (applies to fig7, nic, scalebench)"
        ),
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write tidy CSV series for plotting into DIR",
    )
    parser.add_argument(
        "--drop-rate",
        type=float,
        default=None,
        metavar="P",
        help=(
            "inject seeded link faults: drop each inter-node transmission "
            "with probability P (reliable delivery layer enabled); for the "
            "'faults' experiment this picks the sweep's non-zero point"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="seed for the fault-injection RNG stream (independent of jitter)",
    )
    parser.add_argument(
        "--retry-timeout",
        type=float,
        default=None,
        metavar="US",
        help="reliable layer: first retransmission timeout in simulated us",
    )
    parser.add_argument(
        "--kill",
        action="append",
        default=None,
        metavar="RANK:AT_US",
        help=(
            "chaos: kill RANK at AT_US simulated microseconds (repeatable); "
            "kills before the barrier hold point hit the barrier exchange, "
            "later ones hit the lock holder"
        ),
    )
    parser.add_argument(
        "--kill-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="chaos: seed for the heartbeat/failure-detector RNG stream",
    )
    parser.add_argument(
        "--partition",
        action="append",
        default=None,
        metavar="NODES:FROM_US:UNTIL_US",
        help=(
            "chaos: cut the comma-separated node group off the fabric for "
            "the simulated-time window (repeatable); the minority freezes "
            "on quorum loss and rejoins with a state resync at the heal"
        ),
    )
    parser.add_argument(
        "--stall",
        action="append",
        default=None,
        metavar="RANK:FROM_US:UNTIL_US",
        help="chaos: pause RANK for the window, then resume it (no crash)",
    )
    parser.add_argument(
        "--lock",
        default=None,
        metavar="KIND",
        help=(
            "chaos: lock algorithm to recover "
            "(ticket, lh, server, hybrid, mcs, naimi, raymond; default hybrid)"
        ),
    )
    topo = parser.add_argument_group("topology options")
    topo.add_argument(
        "--topo",
        metavar="SPEC",
        default=None,
        help=(
            "hierarchical network topology, innermost level first: "
            "comma-separated NAME:ARITY[:LATENCY_US[:PER_BYTE_US"
            "[:CONTENTION]]] (empty numeric field = inherit the preset's "
            "flat figure), e.g. 'switch:8:26,spine:512:48::2.0'; enables "
            "the topology-aware barrier algorithms"
        ),
    )
    topo.add_argument(
        "--radix",
        type=int,
        default=None,
        metavar="K",
        help="k-ary combining-tree radix for the 'kary' barrier (default 4)",
    )
    topo.add_argument(
        "--coalesce",
        action="store_true",
        help=(
            "scalebench: one simulator actor per node instead of per rank "
            "(requires --ppn > 1); intra-node phases are charged "
            "analytically, inter-node phases simulated — what makes "
            "N=16384 tractable"
        ),
    )
    fuzz = parser.add_argument_group("fuzz options")
    fuzz.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="fuzz: number of consecutive seeds to run (default 50, or "
        "unlimited when --time-budget is given)",
    )
    fuzz.add_argument(
        "--start-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="fuzz: first seed of the campaign (default 0)",
    )
    fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="S",
        help="fuzz: stop starting new seeds after S wall-clock seconds; "
        "scalebench: skip remaining cells once S seconds have elapsed",
    )
    fuzz.add_argument(
        "--replay",
        type=int,
        default=None,
        metavar="SEED",
        help="fuzz: re-expand and run one seed (byte-identical, nonzero "
        "exit iff it reports violations)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="fuzz: report the first failure without shrinking it",
    )
    fuzz.add_argument(
        "--self-test",
        action="store_true",
        help="fuzz/mc: plant the three seeded bug mutants and require the "
        "oracle to catch each (fuzz: within the seed budget; mc: by "
        "exploration at minimal N)",
    )
    fuzz.add_argument(
        "--self-test-budget",
        type=int,
        default=12,
        metavar="N",
        help="fuzz: seeds tried per mutant in --self-test (default 12)",
    )
    fuzz.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="fuzz: replay every corpus schedule in DIR instead of "
        "generating seeds (nonzero exit iff any entry fails)",
    )
    fuzz.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="fuzz/mc/scalebench: also write the campaign/replay/"
        "exploration/scaling result as JSON to PATH",
    )
    mc = parser.add_argument_group("mc options")
    mc.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="mc: max complete schedules per exploration (default: the "
        "target's tuned budget)",
    )
    mc.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="US",
        help="mc: commutation window in simulated us — deliveries within "
        "it of the queue head count as co-enabled (default: the target's)",
    )
    mc.add_argument(
        "--cap",
        type=float,
        default=None,
        metavar="US",
        help="mc: simulated-time cap per explored run (default: the "
        "target's)",
    )
    mc.add_argument(
        "--scenario",
        type=int,
        default=None,
        metavar="SEED",
        help="mc: explore the fuzzer-generated scenario for SEED instead "
        "of a named target",
    )
    mc.add_argument(
        "--schedule",
        metavar="PATH",
        default=None,
        help="mc: replay a serialized counterexample (nonzero exit iff it "
        "still fails)",
    )
    mc.add_argument(
        "--ce-out",
        metavar="DIR",
        default=None,
        help="mc: write any counterexample found to DIR as JSON",
    )
    return parser


def _validate_fault_args(args) -> None:
    """Reject nonsense fault options with a one-line error (satellites).

    argparse already type-checks ``--drop-rate``/``--fault-seed``; value
    *ranges* are checked here so a typo like ``--drop-rate 15`` fails up
    front instead of as a mid-simulation traceback.
    """
    drop = getattr(args, "drop_rate", None)
    if drop is not None and not (0.0 <= drop < 1.0):
        raise _CliError(
            f"--drop-rate must be a probability in [0, 1), got {drop!r}"
        )
    retry = getattr(args, "retry_timeout", None)
    if retry is not None and not retry > 0.0:
        raise _CliError(f"--retry-timeout must be > 0 us, got {retry!r}")


def _parse_kill(spec: str):
    """Parse one ``--kill RANK:AT_US`` spec or raise :class:`_CliError`."""
    try:
        rank_s, at_s = spec.split(":", 1)
        rank, at_us = int(rank_s), float(at_s)
    except ValueError:
        raise _CliError(f"bad --kill spec {spec!r}: expected RANK:AT_US")
    if rank < 0:
        raise _CliError(f"bad --kill spec {spec!r}: RANK must be >= 0")
    if not at_us > 0.0:
        raise _CliError(
            f"bad --kill spec {spec!r}: AT_US must be > 0 (a process "
            "cannot crash before the run starts)"
        )
    return rank, at_us


def _parse_window(spec: str, flag: str, what: str):
    """Split ``HEAD:FROM_US:UNTIL_US`` and validate the time window."""
    try:
        head, from_s, until_s = spec.rsplit(":", 2)
        from_us, until_us = float(from_s), float(until_s)
    except ValueError:
        raise _CliError(
            f"bad {flag} spec {spec!r}: expected {what}:FROM_US:UNTIL_US"
        )
    if not 0.0 <= from_us < until_us:
        raise _CliError(
            f"bad {flag} spec {spec!r}: need 0 <= FROM_US < UNTIL_US"
        )
    return head, from_us, until_us


def _parse_partition(spec: str):
    """Parse one ``--partition NODES:FROM_US:UNTIL_US`` spec.

    ``NODES`` is a comma-separated group of node ids cut off the fabric
    for the window; legality against the topology (node 0 stays in the
    majority, the group is a strict minority) is checked by chaosbench.
    """
    head, from_us, until_us = _parse_window(spec, "--partition", "NODES")
    try:
        nodes = tuple(sorted({int(n) for n in head.split(",") if n.strip()}))
    except ValueError:
        raise _CliError(
            f"bad --partition spec {spec!r}: NODES must be comma-separated ints"
        )
    if not nodes:
        raise _CliError(f"bad --partition spec {spec!r}: empty node group")
    if any(n < 0 for n in nodes):
        raise _CliError(f"bad --partition spec {spec!r}: node ids must be >= 0")
    return nodes, from_us, until_us


def _parse_stall(spec: str):
    """Parse one ``--stall RANK:FROM_US:UNTIL_US`` spec."""
    head, from_us, until_us = _parse_window(spec, "--stall", "RANK")
    try:
        rank = int(head)
    except ValueError:
        raise _CliError(f"bad --stall spec {spec!r}: RANK must be an int")
    if rank < 0:
        raise _CliError(f"bad --stall spec {spec!r}: RANK must be >= 0")
    return rank, from_us, until_us


def _parse_topo(args):
    """Resolve ``--topo`` to a :class:`~repro.topo.Hierarchy` (or None)."""
    spec = getattr(args, "topo", None)
    if spec is None:
        return None
    from .topo import parse_topo_spec

    try:
        return parse_topo_spec(spec)
    except ValueError as exc:
        raise _CliError(str(exc))


def _network_params(args):
    """Resolve the preset plus any fault/reliability/topology options."""
    from .net.faults import FaultPlan

    _validate_fault_args(args)
    params = _preset(args.network)
    overrides = {}
    hierarchy = _parse_topo(args)
    if hierarchy is not None:
        overrides["hierarchy"] = hierarchy
    radix = getattr(args, "radix", None)
    if radix is not None:
        if radix < 2:
            raise _CliError(f"--radix must be >= 2, got {radix!r}")
        overrides["tree_radix"] = radix
    if args.retry_timeout is not None:
        overrides["retry_timeout_us"] = args.retry_timeout
    if args.drop_rate:
        overrides["faults"] = FaultPlan.uniform(
            drop_rate=args.drop_rate,
            dup_rate=args.drop_rate / 2.0,
            seed=args.fault_seed,
        )
        if args.retry_timeout is None:
            # Default on faulty networks: estimate the retransmission
            # timeout adaptively (Jacobson/Karn) instead of the fixed
            # preset value.  An explicit --retry-timeout pins it fixed.
            overrides["adaptive_retry"] = True
    return params.with_(**overrides) if overrides else params


def _fig7(args) -> None:
    from .experiments.report import comparison_to_csv, write_csv

    cfg = Fig7Config(
        nprocs_list=tuple(args.procs) if args.procs else Fig7Config.nprocs_list,
        iterations=args.iterations or 100,
        procs_per_node=args.ppn,
        params=_network_params(args),
    )
    comparison = run_fig7(cfg, jobs=args.jobs)
    print(comparison.render())
    if args.csv:
        path = write_csv(comparison_to_csv(comparison), args.csv, "fig7_ga_sync")
        print(f"csv written: {path}")


def _lock_cfg(args) -> LockBenchConfig:
    return LockBenchConfig(
        nprocs_list=tuple(args.procs) if args.procs else LockBenchConfig.nprocs_list,
        iterations=args.iterations or 400,
        procs_per_node=args.ppn,
        params=_network_params(args),
    )


def _locks(args, which: Optional[str] = None) -> None:
    from .experiments.report import lock_series_to_csv, write_csv

    series = run_lock_series(_lock_cfg(args))
    figs = {
        "fig8": ("roundtrip", "Figure 8: time to request and release a lock"),
        "fig9": ("acquire", "Figure 9: time to request and acquire a lock"),
        "fig10": ("release", "Figure 10: time to release a lock"),
    }
    selected = [which] if which else list(figs)
    for key in selected:
        metric, title = figs[key]
        print(comparison_from_series(series, metric, title).render())
        print()
    if args.csv:
        path = write_csv(lock_series_to_csv(series), args.csv, "figs8_9_10_locks")
        print(f"csv written: {path}")


def _ablations(args) -> None:
    from .experiments.ablations import render_lock_algorithms, run_lock_algorithms

    print(run_crossover(params=_network_params(args)).render())
    print()
    print(run_fence_modes(params=_network_params(args)).render())
    print()
    print(run_smp_handoff(params=_network_params(args)).render())
    print()
    print(run_wake_cost().render())
    print()
    print(render_release_opt(run_release_opt()))
    print()
    print(render_lock_algorithms(run_lock_algorithms()))


def _microbench(args) -> None:
    from .experiments.microbench import run_microbench

    print(run_microbench(params=_network_params(args)).render())


def _fairness(args) -> None:
    from .experiments.ablations import render_lock_fairness, run_lock_fairness

    data = run_lock_fairness(
        nprocs=(args.procs[0] if args.procs else 8),
        iterations=args.iterations or 200,
        params=_network_params(args),
    )
    print(render_lock_fairness(data))


def _app(args) -> None:
    from .experiments.app_scaling import AppScalingConfig, run_app_scaling

    cfg = AppScalingConfig(
        nprocs_list=tuple(args.procs) if args.procs else AppScalingConfig.nprocs_list,
        iterations=args.iterations or 10,
        procs_per_node=args.ppn,
        params=_network_params(args),
    )
    print(run_app_scaling(cfg).render())


def _faults(args) -> None:
    from .experiments.faultbench import FaultBenchConfig, run_faultbench

    _validate_fault_args(args)
    cfg = FaultBenchConfig(
        nprocs=(args.procs[0] if args.procs else FaultBenchConfig.nprocs),
        procs_per_node=args.ppn,
        drop_rates=(
            (0.0, args.drop_rate)
            if args.drop_rate
            else FaultBenchConfig.drop_rates
        ),
        fault_seed=(
            args.fault_seed
            if args.fault_seed is not None
            else FaultBenchConfig.fault_seed
        ),
        retry_timeout_us=args.retry_timeout,
        params=_preset(args.network),
    )
    print(run_faultbench(cfg).render())


def _chaos(args) -> int:
    from .experiments.chaosbench import ChaosBenchConfig, run_chaosbench

    defaults = ChaosBenchConfig()
    overrides = {}
    if args.procs:
        overrides["nprocs"] = args.procs[0]
    if args.ppn != 1:
        overrides["procs_per_node"] = args.ppn
    if args.lock:
        overrides["lock_kind"] = args.lock
    if args.kill_seed is not None:
        overrides["kill_seed"] = args.kill_seed
    if args.kill:
        barrier_kills, lock_kills = [], []
        for spec in args.kill:
            rank, at_us = _parse_kill(spec)
            if at_us < defaults.barrier_hold_us:
                barrier_kills.append((rank, at_us))
            else:
                lock_kills.append((rank, at_us))
        overrides["barrier_kills"] = tuple(barrier_kills)
        overrides["lock_kills"] = tuple(lock_kills)
    if args.partition:
        overrides["partitions"] = tuple(
            _parse_partition(spec) for spec in args.partition
        )
    if args.stall:
        overrides["stalls"] = tuple(_parse_stall(spec) for spec in args.stall)
    if (args.partition or args.stall) and not args.kill:
        # A transient-only run: measure freeze/heal/rejoin without the
        # stock crash schedule.
        overrides.setdefault("barrier_kills", ())
        overrides.setdefault("lock_kills", ())
    params = _preset(args.network)
    retry = getattr(args, "retry_timeout", None)
    if retry is not None:
        _validate_fault_args(args)
        params = params.with_(retry_timeout_us=retry)
    elif args.kill or args.partition or args.stall:
        # Same default as _network_params: under injected faults the
        # retransmission timeout is RTT-estimated unless pinned.
        params = params.with_(adaptive_retry=True)
    overrides["params"] = params
    try:
        result = run_chaosbench(ChaosBenchConfig(**overrides))
    except ValueError as exc:
        # Topology-level legality (node 0 stays, strict majority, rank 0
        # never stalled) is checked by chaosbench against --procs/--ppn.
        raise _CliError(str(exc))
    print(result.render())
    return 0 if result.all_ok() else 1


def _nic(args) -> None:
    from .experiments.nicbench import NicBenchConfig, run_nicbench
    from .experiments.report import nicbench_to_csv, write_csv

    cfg = NicBenchConfig(
        nprocs_list=(
            tuple(args.procs) if args.procs else NicBenchConfig.nprocs_list
        ),
        iterations=args.iterations or 100,
        procs_per_node=args.ppn,
        params=_network_params(args),
    )
    result = run_nicbench(cfg, jobs=args.jobs)
    print(result.render())
    if args.csv:
        path = write_csv(nicbench_to_csv(result), args.csv, "ablation_nic")
        print(f"csv written: {path}")


def _scalebench(args) -> None:
    import json
    from pathlib import Path

    from .experiments.report import scalebench_to_csv, write_csv
    from .experiments.scalebench import ScaleBenchConfig, run_scalebench

    if args.coalesce and args.ppn < 2:
        raise _CliError("--coalesce requires --ppn > 1")
    cfg = ScaleBenchConfig(
        nprocs_list=(
            tuple(args.procs) if args.procs else ScaleBenchConfig.nprocs_list
        ),
        iterations=args.iterations or ScaleBenchConfig.iterations,
        procs_per_node=args.ppn,
        params=_network_params(args),
        coalesce=args.coalesce,
        wall_budget_s=args.time_budget,
    )
    try:
        result = run_scalebench(cfg, jobs=args.jobs)
    except ValueError as exc:
        # Variant/coalesce legality (divisibility, coalescible variants)
        # is checked by scalebench against --procs/--ppn.
        raise _CliError(str(exc))
    print(result.render())
    if args.csv:
        path = write_csv(scalebench_to_csv(result), args.csv, "scalebench")
        print(f"csv written: {path}")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(result.to_json(), indent=2) + "\n"
        )
        print(f"json written: {args.json_out}")


def _chaos_defaults(args) -> int:
    """Chaos summary for ``repro all``: stock kills regardless of --procs.

    The default victim ranks assume the default process count, so the
    sweep flags that resize other experiments are deliberately ignored.
    """
    from .experiments.chaosbench import ChaosBenchConfig, run_chaosbench

    result = run_chaosbench(ChaosBenchConfig(params=_preset(args.network)))
    print(result.render())
    return 0 if result.all_ok() else 1


def _fuzz(args) -> int:
    """``repro fuzz``: campaigns, replay, corpus replay, oracle self-test."""
    from pathlib import Path

    from .fuzz import replay_corpus, replay_seed, run_campaign
    from .fuzz.selftest import run_self_test

    if args.self_test:
        result = run_self_test(budget=args.self_test_budget)
        print(result.render())
        return 0 if result.all_caught() else 1

    if args.corpus is not None:
        corpus_dir = Path(args.corpus)
        if not corpus_dir.is_dir():
            raise _CliError(f"--corpus {args.corpus!r} is not a directory")
        results = replay_corpus(corpus_dir)
        if not results:
            raise _CliError(f"--corpus {args.corpus!r} holds no *.json entries")
        failed = False
        for name, outcome in results:
            print(f"[{'ok' if outcome.ok() else 'FAIL'}] {name}")
            if not outcome.ok():
                print(outcome.render())
                failed = True
        return 1 if failed else 0

    if args.replay is not None:
        outcome = replay_seed(args.replay)
        print(outcome.render())
        if args.json_out:
            Path(args.json_out).write_text(outcome.to_json() + "\n")
            print(f"json written: {args.json_out}")
        return 0 if outcome.ok() else 1

    num_seeds = args.seeds
    if num_seeds is None:
        num_seeds = None if args.time_budget is not None else 50
    campaign = run_campaign(
        start_seed=args.start_seed,
        num_seeds=num_seeds,
        time_budget_s=args.time_budget,
        do_shrink=not args.no_shrink,
    )
    print(campaign.render())
    if args.json_out:
        Path(args.json_out).write_text(campaign.to_json() + "\n")
        print(f"json written: {args.json_out}")
    return 0 if campaign.ok() else 1


def _mc(args) -> int:
    """``repro mc``: RMCheck schedule exploration over named targets."""
    import json
    from pathlib import Path

    from .mc import (
        TARGETS,
        explore,
        get_target,
        load_counterexample,
        replay_counterexample,
    )
    from .mc.explore import MC_SIM_CAP_US

    if args.self_test:
        from .mc.selftest import run_mc_self_test

        result = run_mc_self_test()
        print(result.render())
        return 0 if result.all_caught() else 1

    if args.schedule is not None:
        outcome = replay_counterexample(load_counterexample(args.schedule))
        print(outcome.render())
        return 0 if outcome.ok() else 1

    # (name, scenario, window, budget, cap, expect_exhaustive) per job.
    jobs = []
    if args.scenario is not None:
        from .fuzz.scenario import generate

        scenario = generate(args.scenario)
        jobs.append(
            (
                None,
                scenario,
                args.window if args.window is not None else 0.0,
                args.budget if args.budget is not None else 2000,
                args.cap if args.cap is not None else MC_SIM_CAP_US,
                False,
            )
        )
    else:
        names = [args.target] if args.target else sorted(TARGETS)
        for name in names:
            try:
                t = get_target(name)
            except KeyError as exc:
                raise _CliError(str(exc))
            jobs.append(
                (
                    t.name,
                    t.scenario,
                    args.window if args.window is not None else t.window,
                    args.budget if args.budget is not None else t.budget,
                    args.cap if args.cap is not None else t.sim_cap_us,
                    t.expect_exhaustive,
                )
            )

    rc = 0
    results = []
    for name, scenario, window, budget, cap, expect_exhaustive in jobs:
        result = explore(
            scenario, window=window, budget=budget, sim_cap_us=cap, target=name
        )
        results.append(result)
        print(result.render())
        if not result.ok():
            rc = 1
            if args.ce_out:
                out_dir = Path(args.ce_out)
                out_dir.mkdir(parents=True, exist_ok=True)
                label = name or f"seed{scenario.seed}"
                path = out_dir / f"counterexample-{label}.json"
                path.write_text(
                    json.dumps(result.counterexample, indent=2) + "\n"
                )
                print(f"counterexample written: {path}")
        elif expect_exhaustive and not result.exhausted:
            rc = 1
            print(
                f"armci-repro: mc: {name} no longer exhausts within its "
                f"budget ({budget}) — schedule space regression",
                file=sys.stderr,
            )
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps([json.loads(r.to_json()) for r in results], indent=2)
            + "\n"
        )
        print(f"json written: {args.json_out}")
    return rc


def _check(args) -> int:
    """``repro check [target]``: RMCSan over representative workloads."""
    if args.lint:
        from .analysis import run_lint
        from .analysis.lint import render_findings

        findings = run_lint()
        print(render_findings(findings))
        return 1 if findings and args.strict else 0

    from .analysis import run_sanitized_target

    failed = False
    for label, report in run_sanitized_target(args.target or "all"):
        total = sum(report.counts.values())
        print(
            f"[{'ok' if report.ok() else 'FAIL'}] {label}: "
            f"{report.events_analyzed} events, {total} violation(s)"
        )
        if not report.ok():
            print(report.render())
            failed = True
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.trace_out:
        from .analysis import capture

        capture.enable(args.trace_out)
    try:
        rc = _dispatch(args)
    except _CliError as exc:
        print(f"armci-repro: error: {exc}", file=sys.stderr)
        rc = 2
    finally:
        if args.trace_out:
            from .analysis import capture

            flushed = capture.flush()
            if flushed is not None:
                path, runs, events = flushed
                print(f"trace written: {path} ({runs} run(s), {events} event(s))")
    return rc


def _dispatch(args) -> int:
    if args.experiment == "fig7":
        _fig7(args)
    elif args.experiment in ("fig8", "fig9", "fig10"):
        _locks(args, args.experiment)
    elif args.experiment == "locks":
        _locks(args)
    elif args.experiment == "ablations":
        _ablations(args)
    elif args.experiment == "app":
        _app(args)
    elif args.experiment == "microbench":
        _microbench(args)
    elif args.experiment == "fairness":
        _fairness(args)
    elif args.experiment == "faults":
        _faults(args)
    elif args.experiment == "chaos":
        return _chaos(args)
    elif args.experiment == "nic":
        _nic(args)
    elif args.experiment == "scalebench":
        _scalebench(args)
    elif args.experiment == "fuzz":
        return _fuzz(args)
    elif args.experiment == "mc":
        return _mc(args)
    elif args.experiment == "validate":
        from .experiments.validate import run_validation

        checks, report = run_validation(quick=True)
        print(report)
        return 0 if all(c.passed for c in checks) else 1
    elif args.experiment == "check":
        return _check(args)
    elif args.experiment == "all":
        _fig7(args)
        print()
        _locks(args)
        _ablations(args)
        print()
        _app(args)
        print()
        _faults(args)
        print()
        rc = _chaos_defaults(args)
        print()
        _nic(args)
        return rc
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
