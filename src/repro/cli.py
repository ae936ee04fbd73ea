"""Command-line entry point: regenerate any of the paper's figures.

Usage (installed as ``armci-repro``, or ``python -m repro``)::

    armci-repro fig7                # GA_Sync time + factor (Figure 7)
    armci-repro fig8                # lock request+release (Figure 8)
    armci-repro fig9                # lock acquire (Figure 9)
    armci-repro fig10               # lock release (Figure 10)
    armci-repro locks               # Figures 8-10 from one run
    armci-repro ablations           # the six ablation studies
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

Every command has its own ``--help`` and accepts exactly the flags it acts
on (the ``COMMANDS`` table below); anything else is rejected with exit 2.
``fuzz``, ``mc`` and ``check`` have modes (``fuzz --replay``, ``mc
--schedule``, ``check --lint``, ...): the table lists what each mode reads,
and a flag of another mode is rejected the same way, before anything runs.

Fault options: ``--drop-rate`` enables seeded link-fault injection (with
the reliable ACK/retransmit layer) on every experiment that takes the
cost-model flags — with the ``faults`` experiment it selects the sweep's
single non-zero point; ``--fault-seed`` pins the fault RNG stream and
``--retry-timeout`` the first retransmission timeout.

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
import contextlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .net.params import _preset
from .sim.trace import TraceOverflow

__all__ = ["COMMANDS", "FLAGS", "main"]


class _CliError(Exception):
    """A user-input problem: reported as one line on stderr, exit 2."""


@contextlib.contextmanager
def _user_input():
    """A legality check an experiment raises as ``ValueError`` is user input."""
    try:
        yield
    except ValueError as exc:
        raise _CliError(str(exc)) from None


@contextlib.contextmanager
def _user_path(key: str, path: str):
    """An ``OSError`` on a path the user named with flag ``key`` is user input."""
    try:
        yield
    except OSError as exc:
        raise _CliError(f"{_spelling(key)} {path!r}: {exc.strerror or exc}") from None


# -- the flag table ----------------------------------------------------------


def _ranged(kind, low, strict: bool = False):
    """argparse ``type=``: a ``kind`` that is ``>= low`` (``> low`` if strict)."""

    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text!r}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: ..."
    return parse


_COUNT = _ranged(int, 1)


def _flag(*names: str, **kwargs):
    return names, kwargs


#: Every flag's argparse definition, once.  A command's subparser gets the
#: entries its ``Command.flags`` names (plus ``trace_out``) and no others.
FLAGS = {
    "target": _flag(
        "target", nargs="?",
        help="check: which workload to sanitize (fig7, locks, faultbench, chaos, nic, "
        "partition, topo; default all); mc: which model-checking target to explore "
        "(see repro.mc.targets; default all)",
    ),
    "lint": _flag(
        "--lint", action="store_true",
        help="run the static lint pass instead of the dynamic happens-before checker",
    ),
    "strict": _flag(
        "--strict", action="store_true",
        help="with --lint: exit nonzero when there are findings (CI mode; the default "
        "is report-only)",
    ),
    "trace_out": _flag(
        "--trace-out", metavar="PATH",
        help="dump the RMCSan protocol-event trace of every simulated run to PATH as "
        "JSON lines (enables event collection)",
    ),
    "iterations": _flag(
        "--iterations", type=_COUNT,
        help="timed iterations per configuration (default: the experiment's)",
    ),
    "network": _flag(
        "--network", default="myrinet2000",
        help="network preset: myrinet2000 (default), gige, quadrics",
    ),
    "procs": _flag(
        "--procs", type=_COUNT, nargs="+",
        help="process counts to sweep (default: paper's)",
    ),
    # The same flag on the commands that run at one process count.
    "nprocs": _flag(
        "--procs", type=_COUNT, nargs=1, metavar="N",
        help="process count (default: the experiment's)",
    ),
    "ppn": _flag(
        "--ppn", type=_COUNT, default=1,
        help="processes per SMP node (default 1, as in the paper's runs)",
    ),
    "jobs": _flag(
        "--jobs", type=_ranged(int, 0), default=1, metavar="N",
        help="shard independent sweep cells over N worker processes (0 = one per "
        "core); simulated results are identical to a serial run",
    ),
    "csv": _flag(
        "--csv", metavar="DIR",
        help="also write tidy CSV series for plotting into DIR",
    ),
    "drop_rate": _flag(
        "--drop-rate", type=float, metavar="P",
        help="inject seeded link faults: drop each inter-node transmission with "
        "probability P (reliable delivery layer enabled); for the 'faults' experiment "
        "this picks the sweep's non-zero point",
    ),
    "fault_seed": _flag(
        "--fault-seed", type=int, metavar="SEED",
        help="seed for the fault-injection RNG stream",
    ),
    "retry_timeout": _flag(
        "--retry-timeout", type=float, metavar="US",
        help="reliable layer: first retransmission timeout in simulated us",
    ),
    "kill": _flag(
        "--kill", action="append", metavar="RANK:AT_US",
        help="kill RANK at AT_US simulated microseconds (repeatable); kills before the "
        "barrier hold point hit the barrier exchange, later ones hit the lock holder",
    ),
    "kill_seed": _flag(
        "--kill-seed", type=int, metavar="SEED",
        help="seed for the heartbeat/failure-detector RNG stream",
    ),
    "partition": _flag(
        "--partition", action="append", metavar="NODES:FROM_US:UNTIL_US",
        help="cut the comma-separated node group off the fabric for the simulated-time "
        "window (repeatable); the minority freezes on quorum loss and rejoins with a "
        "state resync at the heal",
    ),
    "stall": _flag(
        "--stall", action="append", metavar="RANK:FROM_US:UNTIL_US",
        help="pause RANK for the window, then resume it (no crash)",
    ),
    "lock": _flag(
        "--lock", metavar="KIND",
        help="lock algorithm to recover (ticket, lh, server, hybrid, mcs, naimi, "
        "raymond; default hybrid)",
    ),
    "topo": _flag(
        "--topo", metavar="SPEC",
        help="hierarchical network topology, innermost level first: comma-separated "
        "NAME:ARITY[:LATENCY_US[:PER_BYTE_US[:CONTENTION]]] (empty numeric field = "
        "inherit the preset's flat figure), e.g. 'switch:8:26,spine:512:48::2.0'; "
        "enables the topology-aware barrier algorithms",
    ),
    "radix": _flag(
        "--radix", type=int, metavar="K",
        help="k-ary combining-tree radix for the 'kary' barrier (default 4)",
    ),
    "coalesce": _flag(
        "--coalesce", action="store_true",
        help="one simulator actor per node instead of per rank (requires --ppn > 1); "
        "intra-node phases are charged analytically, inter-node phases simulated — "
        "what makes N=16384 tractable",
    ),
    "seeds": _flag(
        "--seeds", type=_COUNT, metavar="N",
        help="number of consecutive seeds to run (default 50, or unlimited when "
        "--time-budget is given)",
    ),
    "start_seed": _flag(
        "--start-seed", type=_ranged(int, 0), metavar="SEED",
        help="first seed of the campaign (default 0)",
    ),
    "time_budget": _flag(
        "--time-budget", type=_ranged(float, 0), metavar="S",
        help="stop starting new work after S wall-clock seconds and list what was "
        "skipped (exit 0): fuzz seeds, mc targets, faults drop-rate points, "
        "nic/scalebench cells, the chaos scenario",
    ),
    "replay": _flag(
        "--replay", type=_ranged(int, 0), metavar="SEED",
        help="re-expand and run one seed (byte-identical, nonzero exit iff it reports "
        "violations)",
    ),
    "no_shrink": _flag(
        "--no-shrink", action="store_true",
        help="report the first failure without shrinking it",
    ),
    "keep_going": _flag(
        "--keep-going", action="store_true",
        help="run every seed of the budget: list all failing seeds with a "
        "kind x lock x barrier histogram, shrink none",
    ),
    "self_test": _flag(
        "--self-test", action="store_true",
        help="plant the three seeded bug mutants and require the oracle to catch each "
        "(fuzz: within the seed budget; mc: by exploration at minimal N)",
    ),
    "self_test_budget": _flag(
        "--self-test-budget", type=_COUNT, metavar="N",
        help="seeds tried per mutant in --self-test (default 12)",
    ),
    "corpus": _flag(
        "--corpus", metavar="DIR",
        help="replay every corpus schedule in DIR instead of generating seeds (nonzero "
        "exit iff any entry fails)",
    ),
    "json_out": _flag(
        "--json-out", metavar="PATH",
        help="also write the campaign/replay/exploration/scaling result as JSON to "
        "PATH",
    ),
    "budget": _flag(
        "--budget", type=_COUNT, metavar="N",
        help="max complete schedules per exploration (default: the target's tuned "
        "budget)",
    ),
    "window": _flag(
        "--window", type=_ranged(float, 0), metavar="US",
        help="commutation window in simulated us — deliveries within it of the queue "
        "head count as co-enabled (default: the target's)",
    ),
    "cap": _flag(
        "--cap", type=_ranged(float, 0, strict=True), metavar="US",
        help="simulated-time cap per explored run (default: the target's)",
    ),
    "scenario": _flag(
        "--scenario", type=int, metavar="SEED",
        help="explore the fuzzer-generated scenario for SEED instead of a named target",
    ),
    "schedule": _flag(
        "--schedule", metavar="PATH",
        help="replay a serialized counterexample (nonzero exit iff it still fails)",
    ),
    "ce_out": _flag(
        "--ce-out", metavar="DIR",
        help="write any counterexample found to DIR as JSON",
    ),
}


def _spelling(key: str) -> str:
    """How an error message names the flag: ``--replay``, ``<target>``."""
    names = FLAGS[key][0]
    return names[0] if names[0].startswith("--") else f"<{names[0]}>"


#: The two recurring flag groups.
SWEEP = ("procs", "ppn", "iterations")
COST_MODEL = ("network", "drop_rate", "fault_seed", "retry_timeout", "topo", "radix")


# -- spec parsing and shared builders ----------------------------------------


def _check_fault_ranges(drop_rate=None, retry_timeout=None) -> None:
    """Reject nonsense fault options with a one-line error.

    argparse already type-checks ``--drop-rate``/``--fault-seed``; value
    *ranges* are checked here so a typo like ``--drop-rate 15`` fails up
    front instead of as a mid-simulation traceback.
    """
    if drop_rate is not None and not (0.0 <= drop_rate < 1.0):
        raise _CliError(
            f"--drop-rate must be a probability in [0, 1), got {drop_rate!r}"
        )
    if retry_timeout is not None and not retry_timeout > 0.0:
        raise _CliError(f"--retry-timeout must be > 0 us, got {retry_timeout!r}")


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


def _network(args):
    with _user_input():
        return _preset(args.network)


def _network_params(args):
    """Resolve the cost-model flags: preset plus fault/reliability/topology."""
    from .net.faults import FaultPlan
    from .topo import parse_topo_spec

    _check_fault_ranges(args.drop_rate, args.retry_timeout)
    params = _network(args)
    overrides = {}
    if args.topo is not None:
        with _user_input():
            overrides["hierarchy"] = parse_topo_spec(args.topo)
    if args.radix is not None:
        if args.radix < 2:
            raise _CliError(f"--radix must be >= 2, got {args.radix!r}")
        overrides["tree_radix"] = args.radix
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


def _given(**fields) -> dict:
    """The fields the user set; the rest stay the experiment's defaults."""
    return {key: value for key, value in fields.items() if value is not None}


def _sweep_config(config_cls, args, **fields):
    """``config_cls`` from the sweep and cost-model flags."""
    return config_cls(
        procs_per_node=args.ppn,
        params=_network_params(args),
        **_given(
            nprocs_list=args.procs and tuple(args.procs),
            iterations=args.iterations,
        ),
        **fields,
    )


def _make_dir(path: str) -> None:
    Path(path).mkdir(parents=True, exist_ok=True)


def _touch(path: str) -> None:
    with open(path, "a", encoding="utf-8"):
        pass


def _enable_capture(path: str) -> None:
    from .analysis import capture

    capture.enable(path)


#: The flags that name a destination this program writes, and how ``main``
#: claims it before the command runs: a bad path then costs no simulation
#: and loses no result.
_OUTPUTS: Dict[str, Callable[[str], None]] = {
    "trace_out": _enable_capture,
    "csv": _make_dir,
    "ce_out": _make_dir,
    "json_out": _touch,
}


def _claim_outputs(command: "Command", args) -> None:
    given = vars(args)
    for key in ("trace_out",) + command.flags:
        if key in _OUTPUTS and given[key]:
            with _user_path(key, given[key]):
                _OUTPUTS[key](given[key])


def _write_csv(args, result, name: str) -> None:
    from .experiments.report import to_csv, write_csv

    if args.csv:
        print(f"csv written: {write_csv(to_csv(result), args.csv, name)}")


def _write_json(args, text: str) -> None:
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
        print(f"json written: {args.json_out}")


def _print_verdicts(results, summary=lambda result: "") -> int:
    """One ``[ok]``/``[FAIL]`` line per (label, result), failures rendered in
    full; returns the exit code."""
    rc = 0
    for label, result in results:
        print(f"[{'ok' if result.ok() else 'FAIL'}] {label}{summary(result)}")
        if not result.ok():
            print(result.render())
            rc = 1
    return rc


# -- the commands ------------------------------------------------------------


def _fig7(args) -> None:
    from .experiments.fig7_sync import Fig7Config, run_fig7

    comparison = run_fig7(_sweep_config(Fig7Config, args), jobs=args.jobs)
    print(comparison.render())
    _write_csv(args, comparison, "fig7_ga_sync")


def _locks(args) -> None:
    """Figures 8-10 from one run; ``fig8``/``fig9``/``fig10`` print their own."""
    from .experiments.lockbench import (
        LOCK_FIGURES,
        LockBenchConfig,
        comparison_from_series,
        run_lock_series,
    )

    series = run_lock_series(_sweep_config(LockBenchConfig, args))
    for name in [args.command] if args.command in LOCK_FIGURES else LOCK_FIGURES:
        print(comparison_from_series(series, *LOCK_FIGURES[name]).render())
        print()
    _write_csv(args, series, "figs8_9_10_locks")


def _ablations(args) -> None:
    from .experiments import ablations as ab
    from .experiments.lockbench import LockBenchConfig

    params = _network_params(args)
    locks = LockBenchConfig(iterations=300, params=params)
    tables = [
        ab.run_crossover(params=params).render(),
        ab.run_fence_modes(params=params).render(),
        ab.run_smp_handoff(params=params).render(),
        ab.run_wake_cost(cfg=locks).render(),
        ab.render_release_opt(ab.run_release_opt(cfg=locks)),
        ab.render_lock_algorithms(ab.run_lock_algorithms(cfg=locks)),
    ]
    print("\n\n".join(tables))


def _microbench(args) -> None:
    from .experiments.microbench import run_microbench

    print(run_microbench(params=_network_params(args)).render())


def _fairness(args) -> None:
    from .experiments.ablations import render_lock_fairness, run_lock_fairness

    data = run_lock_fairness(
        params=_network_params(args),
        **_given(nprocs=args.procs and args.procs[0], iterations=args.iterations),
    )
    print(render_lock_fairness(data))


def _app(args) -> None:
    from .experiments.app_scaling import AppScalingConfig, run_app_scaling

    print(run_app_scaling(_sweep_config(AppScalingConfig, args)).render())


def _faults(args) -> int:
    from .experiments.faultbench import FaultBenchConfig, run_faultbench

    _check_fault_ranges(args.drop_rate, args.retry_timeout)
    cfg = FaultBenchConfig(
        procs_per_node=args.ppn,
        retry_timeout_us=args.retry_timeout,
        params=_network(args),
        **_given(
            nprocs=args.procs and args.procs[0],
            drop_rates=(0.0, args.drop_rate) if args.drop_rate else None,
            fault_seed=args.fault_seed,
        ),
    )
    result = run_faultbench(cfg, budget_s=args.time_budget)
    print(result.render())
    # A point whose final memory diverged from the fault-free run fails the command.
    return 0 if result.all_ok() else 1


def _chaos(args) -> int:
    from .experiments.chaosbench import ChaosBenchConfig, run_chaosbench
    from .experiments.parallel import budget_note, within_budget

    overrides = _given(
        nprocs=args.procs and args.procs[0],
        lock_kind=args.lock or None,
        kill_seed=args.kill_seed,
    )
    if args.kill:
        hold_us = ChaosBenchConfig.barrier_hold_us
        kills = [_parse_kill(spec) for spec in args.kill]
        overrides["barrier_kills"] = tuple(k for k in kills if k[1] < hold_us)
        overrides["lock_kills"] = tuple(k for k in kills if k[1] >= hold_us)
    elif args.partition or args.stall:
        # A transient-only run: measure freeze/heal/rejoin without the
        # stock crash schedule.
        overrides["barrier_kills"] = overrides["lock_kills"] = ()
    if args.partition:
        overrides["partitions"] = tuple(
            _parse_partition(spec) for spec in args.partition
        )
    if args.stall:
        overrides["stalls"] = tuple(_parse_stall(spec) for spec in args.stall)
    params = _network(args)
    if args.retry_timeout is not None:
        _check_fault_ranges(retry_timeout=args.retry_timeout)
        params = params.with_(retry_timeout_us=args.retry_timeout)
    elif args.kill or args.partition or args.stall:
        # Same default as _network_params: under injected faults the
        # retransmission timeout is RTT-estimated unless pinned.
        params = params.with_(adaptive_retry=True)
    # Topology-level legality (node 0 stays, strict majority, rank 0 never
    # stalled) is checked by chaosbench against --procs/--ppn.
    with _user_input():
        config = ChaosBenchConfig(procs_per_node=args.ppn, params=params, **overrides)
    skipped: list = []
    for config in within_budget([config], args.time_budget, skipped):
        result = run_chaosbench(config)
        print(result.render())
        return 0 if result.all_ok() else 1
    print(budget_note(args.time_budget, ["the chaos scenario"]))
    return 0


def _nic(args) -> None:
    from .experiments.nicbench import NicBenchConfig, run_nicbench

    result = run_nicbench(
        _sweep_config(NicBenchConfig, args), jobs=args.jobs, budget_s=args.time_budget
    )
    print(result.render())
    _write_csv(args, result, "ablation_nic")


def _scalebench(args) -> None:
    from .experiments.scalebench import ScaleBenchConfig, run_scalebench

    if args.coalesce and args.ppn < 2:
        raise _CliError("--coalesce requires --ppn > 1")
    cfg = _sweep_config(
        ScaleBenchConfig, args, coalesce=args.coalesce, wall_budget_s=args.time_budget
    )
    # Variant/coalesce legality (divisibility, coalescible variants) is
    # checked by scalebench against --procs/--ppn.
    with _user_input():
        result = run_scalebench(cfg, jobs=args.jobs)
    print(result.render())
    _write_csv(args, result, "scalebench")
    _write_json(args, json.dumps(result.to_json(), indent=2))


def _fuzz(args) -> int:
    """``repro fuzz``: campaigns, replay, corpus replay, oracle self-test."""
    from .fuzz import replay_corpus, replay_seed, run_campaign
    from .fuzz.selftest import run_self_test

    if args.self_test:
        result = run_self_test(**_given(budget=args.self_test_budget))
        print(result.render())
        return 0 if result.all_caught() else 1

    if args.corpus is not None:
        corpus_dir = Path(args.corpus)
        if not corpus_dir.is_dir():
            raise _CliError(f"--corpus {args.corpus!r} is not a directory")
        results = replay_corpus(corpus_dir)
        if not results:
            raise _CliError(f"--corpus {args.corpus!r} holds no *.json entries")
        return _print_verdicts(results)

    if args.replay is not None:
        outcome = replay_seed(args.replay)
    else:
        num_seeds = args.seeds
        if num_seeds is None and args.time_budget is None:
            num_seeds = 50
        outcome = run_campaign(
            num_seeds=num_seeds,
            time_budget_s=args.time_budget,
            do_shrink=not args.no_shrink,
            keep_going=args.keep_going,
            **_given(start_seed=args.start_seed),
        )
    print(outcome.render())
    _write_json(args, outcome.to_json())
    return 0 if outcome.ok() else 1


def _mc(args) -> int:
    """``repro mc``: RMCheck schedule exploration over named targets."""
    from .experiments.parallel import budget_note, within_budget
    from .mc import (
        TARGETS,
        explore,
        get_target,
        load_counterexample,
        replay_counterexample,
    )

    if args.self_test:
        from .mc.selftest import run_mc_self_test

        result = run_mc_self_test()
        print(result.render())
        return 0 if result.all_caught() else 1

    if args.schedule is not None:
        with _user_path("schedule", args.schedule):
            counterexample = load_counterexample(args.schedule)
        outcome = replay_counterexample(counterexample)
        print(outcome.render())
        return 0 if outcome.ok() else 1

    # (name, scenario, its tuned knobs, expect_exhaustive) per job; a fuzzer
    # scenario has no tuned knobs and explores at explore()'s defaults.
    if args.scenario is not None:
        from .fuzz.scenario import generate

        jobs = [(None, generate(args.scenario), {}, False)]
    else:
        jobs = []
        for name in [args.target] if args.target else sorted(TARGETS):
            try:
                t = get_target(name)
            except KeyError as exc:
                raise _CliError(exc.args[0])
            knobs = {"window": t.window, "budget": t.budget, "sim_cap_us": t.sim_cap_us}
            jobs.append((t.name, t.scenario, knobs, t.expect_exhaustive))

    rc = 0
    results = []
    skipped: list = []
    given = _given(window=args.window, budget=args.budget, sim_cap_us=args.cap)
    for name, scenario, knobs, expect_exhaustive in within_budget(
        jobs, args.time_budget, skipped
    ):
        knobs.update(given)
        result = explore(scenario, target=name, **knobs)
        results.append(result)
        print(result.render())
        if not result.ok():
            rc = 1
            if args.ce_out:
                label = name or f"seed{scenario.seed}"
                path = Path(args.ce_out) / f"counterexample-{label}.json"
                path.write_text(json.dumps(result.counterexample, indent=2) + "\n")
                print(f"counterexample written: {path}")
        elif expect_exhaustive and not result.exhausted:
            rc = 1
            print(
                f"armci-repro: mc: {name} no longer exhausts within its "
                f"budget ({knobs['budget']}) — schedule space regression",
                file=sys.stderr,
            )
    if skipped:
        print(budget_note(args.time_budget, (job[0] for job in skipped)))
    _write_json(args, json.dumps([json.loads(r.to_json()) for r in results], indent=2))
    return rc


def _validate(args) -> int:
    from .experiments.validate import run_validation

    checks, report = run_validation(quick=True)
    print(report)
    return 0 if all(c.passed for c in checks) else 1


def _check(args) -> int:
    """``repro check [target]``: RMCSan over representative workloads."""
    if args.lint:
        from .analysis import run_lint
        from .analysis.lint import render_findings

        findings = run_lint()
        print(render_findings(findings))
        return 1 if findings and args.strict else 0

    from .analysis import run_sanitized_target

    with _user_input():
        reports = run_sanitized_target(args.target or "all")
    return _print_verdicts(
        reports,
        lambda report: f": {report.events_analyzed} events, "
        f"{sum(report.counts.values())} violation(s)",
    )


def _all(args) -> int:
    """Every experiment above, one after the other.

    ``chaos`` runs its own defaults on the requested network: its stock
    victim ranks assume its default process count, so the sweep flags that
    resize the other experiments do not reach it.
    """
    _fig7(args)
    print()
    _locks(args)
    _ablations(args)
    print()
    _app(args)
    print()
    rc = _faults(_unbudgeted(args))
    print()
    rc = _chaos(_build_parser().parse_args(["chaos", "--network", args.network])) or rc
    print()
    _nic(_unbudgeted(args))
    return rc


def _unbudgeted(args) -> argparse.Namespace:
    """``args`` for a section of ``all`` that takes ``--time-budget``, which
    ``all`` does not: every section runs in full."""
    return argparse.Namespace(**vars(args), time_budget=None)


class Command(NamedTuple):
    """One ``armci-repro`` command."""

    #: Handler; returns the exit code (``None`` = 0).
    run: Callable[[argparse.Namespace], Optional[int]]
    #: ``FLAGS`` keys: exactly the flags the handler acts on.
    flags: Tuple[str, ...]
    help: str
    #: Mutually exclusive modes, for a command that has them: ``"default"``
    #: and each selector flag's key -> the flags read in that mode.
    modes: Dict[str, Tuple[str, ...]] = {}


def _moded(run, help: str, **modes: Tuple[str, ...]) -> Command:
    """A command whose flags are the selectors plus what each mode reads."""
    flags = [mode for mode in modes if mode != "default"]
    flags += [key for read in modes.values() for key in read]
    return Command(run, tuple(dict.fromkeys(flags)), help, modes)


def _check_mode(name: str, command: Command, args) -> None:
    """A flag of another mode than the one selected is rejected, not ignored."""
    values = vars(args)
    # Every moded flag defaults to None (False for a switch), so this is
    # "was given", --start-seed 0 included.
    given = [
        k for k in command.flags if values[k] is not None and values[k] is not False
    ]
    selected = [key for key in given if key in command.modes]
    if len(selected) > 1:
        raise _CliError(
            f"{name}: {' and '.join(map(_spelling, selected))} are different "
            "modes; give one"
        )
    mode = selected[0] if selected else "default"
    stray = [k for k in given if k != mode and k not in command.modes[mode]]
    if stray:
        if selected:
            how = f"with {_spelling(mode)}"
        else:
            owners = [m for m in command.modes if set(stray) & set(command.modes[m])]
            how = f"without {' / '.join(map(_spelling, owners))}"
        raise _CliError(
            f"{name}: {', '.join(map(_spelling, stray))} "
            f"{'has' if len(stray) == 1 else 'have'} no effect {how}"
        )


_LOCK_FLAGS = SWEEP + COST_MODEL + ("csv",)
_MC_KNOBS = ("budget", "window", "cap", "ce_out", "json_out")
_FIG7_FLAGS = SWEEP + COST_MODEL + ("jobs", "csv")

COMMANDS: Dict[str, Command] = {
    "fig7": Command(_fig7, _FIG7_FLAGS, "GA_Sync time + factor (Figure 7)"),
    "fig8": Command(_locks, _LOCK_FLAGS, "lock request+release (Figure 8)"),
    "fig9": Command(_locks, _LOCK_FLAGS, "lock acquire (Figure 9)"),
    "fig10": Command(_locks, _LOCK_FLAGS, "lock release (Figure 10)"),
    "locks": Command(_locks, _LOCK_FLAGS, "Figures 8-10 from one run"),
    "ablations": Command(_ablations, COST_MODEL, "the ablation studies"),
    "app": Command(_app, SWEEP + COST_MODEL, "application-level scalability impact"),
    "microbench": Command(_microbench, COST_MODEL, "the substrate calibration table"),
    "fairness": Command(
        _fairness, ("nprocs", "iterations") + COST_MODEL,
        "per-rank lock fairness profile",
    ),
    "faults": Command(
        _faults,
        ("nprocs", "ppn", "network", "drop_rate", "fault_seed", "retry_timeout",
         "time_budget"),
        "sync cost + retry volume vs drop rate",
    ),
    "chaos": Command(
        _chaos,
        ("nprocs", "ppn", "network", "retry_timeout", "lock", "kill",
         "kill_seed", "partition", "stall", "time_budget"),
        "crash-stop kills, partitions and stalls + membership recovery",
    ),
    "nic": Command(
        _nic, _FIG7_FLAGS + ("time_budget",), "host vs NIC-offloaded barrier ablation"
    ),
    "scalebench": Command(
        _scalebench,
        SWEEP + COST_MODEL + ("coalesce", "jobs", "time_budget", "csv", "json_out"),
        "barrier scaling to 1024 processes (16384 with --topo --coalesce)",
    ),
    "fuzz": _moded(
        _fuzz,
        "randomized fault/crash scenario fuzzing",
        default=("seeds", "start_seed", "time_budget", "no_shrink", "keep_going",
                 "json_out"),
        replay=("json_out",),
        corpus=(),
        self_test=("self_test_budget",),
    ),
    "mc": _moded(
        _mc,
        "RMCheck: schedule exploration of the named targets",
        default=("target", "time_budget") + _MC_KNOBS,
        scenario=_MC_KNOBS,
        schedule=(),
        self_test=(),
    ),
    "validate": Command(_validate, (), "the reproduction self-check"),
    "check": _moded(
        _check,
        "RMCSan sanitized runs, or the static lint with --lint",
        default=("target",),
        lint=("strict",),
    ),
    "all": Command(
        _all, _FIG7_FLAGS, "fig7, locks, ablations, app, faults, chaos and nic"
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per ``COMMANDS`` entry, holding the flags it declares."""
    parser = argparse.ArgumentParser(
        prog="armci-repro",
        description=(
            "Reproduce the figures of 'Optimizing Synchronization Operations "
            "for Remote Memory Communication Systems' (IPPS 2003) on a "
            "simulated Myrinet cluster.  Each command has its own --help."
        ),
    )
    commands = parser.add_subparsers(dest="command", metavar="command", required=True)
    for name, command in COMMANDS.items():
        sub = commands.add_parser(name, help=command.help, description=command.help)
        for key in command.flags + ("trace_out",):
            names, kwargs = FLAGS[key]
            sub.add_argument(*names, **kwargs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        if command.modes:
            _check_mode(args.command, command, args)
        _claim_outputs(command, args)
        rc = command.run(args) or 0
    except _CliError as exc:
        print(f"armci-repro: error: {exc}", file=sys.stderr)
        rc = 2
    except TraceOverflow as exc:
        print(
            f"armci-repro: error: {exc}; pass a smaller --iterations or --procs",
            file=sys.stderr,
        )
        rc = 2
        if args.trace_out:
            from .analysis import capture

            capture.discard()
    finally:
        if args.trace_out:
            from .analysis import capture

            written = capture.flush()  # None: the path could not be opened
            if written:
                path, runs, events = written
                print(f"trace written: {path} ({runs} run(s), {events} event(s))")
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
