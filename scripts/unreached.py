#!/usr/bin/env python
"""Which functions under ``src/repro`` does no entry point ever call?

The reachability gate behind the repo's deletion work.  Every non-test
entry point — each CLI command (the CI chaos/partition matrix and every
``--lock`` kind included, plus the output flags CI passes: ``fuzz
--keep-going --json-out``, ``scalebench --csv --json-out``, ``mc
--ce-out``), the fuzzer's self-test, corpus and a seed sweep, every
RMCheck target and a counterexample round trip, ``check`` and its lint,
``validate``, ``regenerate_results.py --check``, the examples,
``calibrate.py`` and the perfbench workloads — runs once at a small size
in its own interpreter under a ``sys.setprofile`` hook that records
function-call events for files under ``src/repro``.  What the union never
called is printed as ``file  qualname  lines``.

    python scripts/unreached.py                  # everything (tens of minutes)
    python scripts/unreached.py --only chaos     # entries whose name matches
    python scripts/unreached.py --out unreached.txt

Every function a full pass leaves unreached must be named in
:data:`KEPT` with its reason.  The full pass exits 1 when an unreached
function is not in ``KEPT``, when a ``KEPT`` entry no longer exists, when
a ``KEPT`` entry is now reached, or when an entry point exits with a code
other than the one it declares.  ``--only`` prints the report and judges
only the exit codes.  Any pass exits 1, with one line naming the files, when
a file under ``src/repro`` changed while it ran (the function spans are
read before the first entry point).  Standard library plus ``repro.cli.COMMANDS`` (every
command must have an entry).
"""

from __future__ import annotations

import argparse
import ast
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
# Runs from a checkout that is not pip-installed, as perfbench/run.py does.
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

LOCK_KINDS = ["ticket", "lh", "server", "hybrid", "mcs", "raymond", "naimi"]
CHAOS_MATRIX = [
    "--procs 6 --lock mcs --kill 4:60 --kill 5:900 --kill-seed 7",
    "--procs 6 --partition 5:200:1400",
    "--procs 6 --partition 4,5:200:1400",
    "--procs 6 --lock naimi --partition 4:60:900",
    "--procs 6 --stall 3:300:900",
    "--procs 6 --lock naimi --kill 3:900 --partition 5:200:1400",
]
HIER = "--ppn 8 --topo switch:8:26::2.0 --radix 8"


def entries(out: str) -> List[Tuple[str, List[str], int]]:
    """``(name, argv, exit code)`` per entry point; argv is what follows
    ``python``.  ``out`` is a scratch directory for the files entries write
    (and a later entry may read)."""
    ce_dir = os.path.join(out, "ce")
    cli = [
        "fig7 --procs 2 4 --iterations 3",
        # At 32 ranks a barrier counts more dirty slots than the shift path
        # packs.
        "fig7 --procs 32 --iterations 1",
        # A worker per core: the pool's workers run unobserved.
        "fig7 --procs 2 --iterations 1 --jobs 0",
        "fig8 --procs 2 4 --iterations 3",
        "fig9 --procs 2 4 --iterations 3",
        "fig10 --procs 2 4 --iterations 3",
        "locks --procs 2 4 --iterations 3",
        "locks --procs 4 --ppn 2 --iterations 3 --network gige",
        # Full size (~15 s unprofiled): the studies fix their own sweeps.
        "ablations",
        "app --procs 2 4",
        "microbench --network quadrics",
        "fairness --procs 4 --iterations 10",
        "faults --procs 4",
        "fig7 --procs 4 --iterations 3 --drop-rate 0.05 --fault-seed 3",
        f"fig7 --procs 2 --iterations 2 --trace-out {os.devnull}",
        "chaos",
        *(f"chaos --lock {kind}" for kind in LOCK_KINDS),
        *(f"chaos {args}" for args in CHAOS_MATRIX),
        "nic --iterations 3 --procs 2 4",
        "scalebench --procs 64 --iterations 2",
        f"scalebench --procs 8 --iterations 1 --csv {out} --json-out {out}/scale.json",
        f"scalebench --procs 64 256 --iterations 2 {HIER}",
        f"scalebench --procs 1024 --iterations 1 {HIER} --coalesce",
        "fuzz --seeds 25",
        "fuzz --self-test",
        "fuzz --corpus tests/fuzz/corpus",
        "fuzz --replay 7",
        ("fuzz --start-seed 39 --seeds 1", 1),  # a red seed: the shrinker's caller
        # What CI's ratchet runs; seed 39 is red, so the exit is 1.
        (f"fuzz --seeds 60 --keep-going --json-out {out}/fuzz.json", 1),
        f"mc --ce-out {ce_dir}",
        # A spent --time-budget: every target is listed as skipped.
        "mc --time-budget 0",
        "mc --self-test",
        # A red seed explored to a counterexample, then replayed from its file.
        (f"mc --scenario 39 --budget 20 --ce-out {ce_dir}", 1),
        (f"mc --schedule {ce_dir}/counterexample-seed39.json", 1),
        "validate",
        "check",
        "check chaos",
        "check partition",
        "check topo",
        "check --lint --strict",
        "all --procs 2 4 --iterations 3",
    ]
    cli = [line if isinstance(line, tuple) else (line, 0) for line in cli]
    from repro.cli import COMMANDS

    missing = set(COMMANDS) - {line.split()[0] for line, _rc in cli}
    if missing:
        raise SystemExit(f"unreached.py: no entry runs repro {sorted(missing)}")
    result = [(f"repro {line}", ["-m", "repro", *line.split()], rc) for line, rc in cli]
    result.append(
        ("regenerate_results --check", ["scripts/regenerate_results.py", "--check"], 0)
    )
    result.append(("calibrate", ["scripts/calibrate.py"], 0))
    result += [
        (f"examples/{path.name}", [str(path.relative_to(ROOT))], 0)
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    result.append(("perfbench --quick", ["perfbench/run.py", "--quick"], 0))
    return result


# -- the kept remainder ----------------------------------------------------------

#: Why an unreached function stays.
FAULT = (
    "fault handling no stock scenario reaches yet: reach it through a fuzz "
    "axis or disprove it"
)
VALIDATION = (
    "validation of outside input: runs only when the input (a CLI argument, "
    "linted source, a checked run) is bad"
)
REFERENCE = "reference implementation the tests compare production code against"
INTERFACE = "interface method: implements a protocol its callers use polymorphically"
REPR = "__repr__"
STOP = "test-harness stop condition"

#: ``(file under src/repro, qualname, reason)`` of every function a full
#: pass may leave unreached.
KEPT: Tuple[Tuple[str, str, str], ...] = (
    # Fault handling: lock recovery and fencing after a declared death, the
    # transport's transient suspension, the server's reply replay, RMCSan's
    # lock-cycle path.
    ("analysis/hb.py", "HBAnalyzer._deadlock_check.<locals>.visit", FAULT),
    ("locks/base.py", "BaseLock.recover", FAULT),
    ("locks/lh.py", "LHLock.recover.<locals>.<lambda>", FAULT),
    ("net/faults.py", "FaultPlan.partition_until", FAULT),
    ("net/reliable.py", "ReliableDelivery._suspend", FAULT),
    ("net/reliable.py", "ReliableDelivery._resume", FAULT),
    ("runtime/server.py", "ServerThread._replay_reply", FAULT),
    # Validation: the CLI's bad-argument wording, a run too big to trace, the
    # linters' finding paths, RMCSan's and RMCheck's failure reports, the
    # kernel's bad-delay error and the deadlock report's per-process target.
    ("analysis/capture.py", "discard", VALIDATION),
    ("analysis/hb.py", "Violation.render", VALIDATION),
    ("analysis/hb.py", "SanReport.render", VALIDATION),
    ("analysis/lint.py", "LintFinding.render", VALIDATION),
    ("analysis/lint.py", "_Checker._add", VALIDATION),
    ("analysis/lint.py", "lint_source.<locals>.<lambda>", VALIDATION),
    ("analysis/lint.py", "lint_paths.<locals>.<lambda>", VALIDATION),
    ("analysis/protoshape.py", "_yields", VALIDATION),
    ("analysis/protoshape.py", "_ShapeChecker._add", VALIDATION),
    ("cli.py", "_spelling", VALIDATION),
    ("mc/strategy.py", "label_key", VALIDATION),
    ("sim/core.py", "_bad_delay", VALIDATION),
    ("sim/core.py", "Process.target", VALIDATION),
    # The paper's Figure 2, verbatim; test_fig2_algorithm.py compares the
    # production allreduce against it.
    ("mp/collectives.py", "allreduce_sum_fig2", REFERENCE),
    # Interface methods: abstract lock and strategy hooks, the vectors' and
    # ConditionValue's list/mapping protocol, containers' len() and the
    # failure half of Event.
    ("locks/base.py", "BaseLock._acquire", INTERFACE),
    ("locks/base.py", "BaseLock._release", INTERFACE),
    ("locks/token_base.py", "TokenLockBase._daemon_loop", INTERFACE),
    ("locks/token_base.py", "TokenLockBase._holds_token", INTERFACE),
    ("locks/token_base.py", "TokenLockBase._wants_token", INTERFACE),
    ("locks/token_base.py", "TokenLockBase._leave_cs", INTERFACE),
    ("mp/vector.py", "OpCounts.tolist", INTERFACE),
    ("mp/vector.py", "OpCounts.__iter__", INTERFACE),
    ("mp/vector.py", "OpCounts.__eq__", INTERFACE),
    ("mp/vector.py", "OpCounts.__ne__", INTERFACE),
    ("mp/vector.py", "CountVector.tolist", INTERFACE),
    ("mp/vector.py", "CountVector.__iter__", INTERFACE),
    ("mp/vector.py", "CountVector.__eq__", INTERFACE),
    ("runtime/memory.py", "Region.__len__", INTERFACE),
    ("sim/core.py", "_Crashed.__bool__", INTERFACE),
    ("sim/core.py", "SchedulerStrategy.choose", INTERFACE),
    ("sim/core.py", "SchedulerStrategy.executed", INTERFACE),
    ("sim/core.py", "Event.fail", INTERFACE),
    ("sim/core.py", "ConditionValue.__getitem__", INTERFACE),
    ("sim/core.py", "ConditionValue.__contains__", INTERFACE),
    ("sim/core.py", "ConditionValue.__iter__", INTERFACE),
    ("sim/core.py", "ConditionValue.__len__", INTERFACE),
    ("sim/core.py", "ConditionValue.__eq__", INTERFACE),
    ("sim/core.py", "ConditionValue.todict", INTERFACE),
    ("sim/primitives.py", "Store.__len__", INTERFACE),
    ("sim/primitives.py", "FilterStore.__len__", INTERFACE),
    # Tests stop runs whose failure detector never idles on all_of(programs).
    ("sim/core.py", "Condition.all_done", STOP),
    ("sim/core.py", "AllOf.__init__", STOP),
    ("sim/core.py", "Environment.all_of", STOP),
    # Debugging output.
    ("analysis/events.py", "ProtoEvent.__repr__", REPR),
    ("armci/api.py", "Armci.__repr__", REPR),
    ("armci/nonblocking.py", "NbHandle.__repr__", REPR),
    ("ga/array.py", "GlobalArray.__repr__", REPR),
    ("ga/array.py", "PreparedPut.__repr__", REPR),
    ("ga/distribution.py", "BlockDistribution.__repr__", REPR),
    ("mp/comm.py", "Comm.__repr__", REPR),
    ("mp/vector.py", "OpCounts.__repr__", REPR),
    ("mp/vector.py", "CountVector.__repr__", REPR),
    ("net/faults.py", "FaultInjector.__repr__", REPR),
    ("net/message.py", "Envelope.__repr__", REPR),
    ("net/reliable.py", "_Frame.__repr__", REPR),
    ("net/reliable.py", "ReliableDelivery.__repr__", REPR),
    ("net/topology.py", "Topology.__repr__", REPR),
    ("nic/engine.py", "NicEngine.__repr__", REPR),
    ("runtime/cluster.py", "ClusterRuntime.__repr__", REPR),
    ("runtime/context.py", "ProcessContext.__repr__", REPR),
    ("runtime/membership.py", "MembershipService.__repr__", REPR),
    ("runtime/memory.py", "GlobalAddress.__repr__", REPR),
    ("runtime/memory.py", "Region.__repr__", REPR),
    ("runtime/server.py", "ServerThread.__repr__", REPR),
    ("sim/core.py", "_Crashed.__repr__", REPR),
    ("sim/core.py", "Event.__repr__", REPR),
    ("sim/core.py", "Timeout.__repr__", REPR),
    ("sim/core.py", "Process.__repr__", REPR),
    ("sim/core.py", "ConditionValue.__repr__", REPR),
    ("sim/primitives.py", "Store.__repr__", REPR),
    ("sim/primitives.py", "FilterStore.__repr__", REPR),
    ("sim/primitives.py", "Broadcast.__repr__", REPR),
)


# -- child: run one entry point under the hook ---------------------------------


def run_child(calls_path: str, argv: List[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    seen: Set = set()
    add = seen.add

    def hook(frame, event, _arg):
        if event == "call":
            add(frame.f_code)

    def dump() -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        with open(calls_path, "w", encoding="utf-8") as fh:
            for code in seen:
                if code.co_filename.startswith(prefix):
                    fh.write(f"{code.co_filename}\t{code.co_firstlineno}\n")

    rc = 0
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv
            sys.path.insert(0, str(Path(argv[0]).resolve().parent))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        dump()
    return rc


# -- parent: inventory, fan out, report --------------------------------------------


def functions(path: Path) -> Iterator[Tuple[int, str, int, int]]:
    """``(first line as the code object reports it, qualname, start, end)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def walk(node: ast.AST, scope: str) -> Iterator[Tuple[int, str, int, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}{child.name}"
                # A decorated function's code object starts at its first
                # decorator.
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                yield first, name, child.lineno, child.end_lineno
                yield from walk(child, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{scope}{child.name}.")
            elif isinstance(child, ast.Lambda):
                yield child.lineno, f"{scope}<lambda>", child.lineno, child.end_lineno
                yield from walk(child, scope)
            else:
                yield from walk(child, scope)

    yield from walk(tree, "")


def _sources() -> Dict[Path, bytes]:
    """Every ``.py`` file under ``src/repro`` and its bytes, in path order."""
    return {path: path.read_bytes() for path in sorted(PACKAGE.rglob("*.py"))}


def judge(unreached: Set[Tuple[str, str]], inventory: Set[Tuple[str, str]]) -> List[str]:
    """What the full pass fails on: one line per unreached function missing
    from :data:`KEPT`, per ``KEPT`` entry that no longer exists and per
    ``KEPT`` entry that is now reached.  Keys are ``(file under
    src/repro, qualname)``."""
    kept = {(path, qualname) for path, qualname, _reason in KEPT}
    problems = [f"not in KEPT: {p}  {q}" for p, q in sorted(unreached - kept)]
    problems += [f"KEPT but gone: {p}  {q}" for p, q in sorted(kept - inventory)]
    problems += [
        f"KEPT but reached (delete the entry): {p}  {q}"
        for p, q in sorted((kept & inventory) - unreached)
    ]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="run only entries whose name contains this")
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args()
    if args.child:
        return run_child(args.child, rest[1:] if rest[:1] == ["--"] else rest)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    # The inventory is read before the first entry runs, and the sources
    # must not change until the last one ends: an edit made during the pass
    # moves the lines the recorded calls are matched against.
    sources = _sources()
    spans = {path: sorted(functions(path)) for path in sources}
    called: Set[Tuple[str, int]] = set()
    failed: List[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        selected = [e for e in entries(tmp) if not args.only or args.only in e[0]]
        for index, (name, argv, expected_rc) in enumerate(selected):
            calls = os.path.join(tmp, f"calls{index}.tsv")
            print(f"[{index + 1}/{len(selected)}] {name}", file=sys.stderr, flush=True)
            done = subprocess.run(
                [sys.executable, __file__, "--child", calls, "--", *argv],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            if done.returncode != expected_rc:
                failed.append(f"{name} (exit {done.returncode}, expected {expected_rc})")
                print(done.stderr[-2000:], file=sys.stderr)
            if os.path.exists(calls):
                with open(calls, encoding="utf-8") as fh:
                    for line in fh:
                        filename, lineno = line.rstrip("\n").split("\t")
                        called.add((filename, int(lineno)))

    after = _sources()
    changed = sorted(p for p in sources.keys() | after.keys() if sources.get(p) != after.get(p))
    if changed:
        names = ", ".join(str(path.relative_to(ROOT)) for path in changed)
        print(f"unreached.py: changed during the pass, run it again: {names}", file=sys.stderr)
        return 1

    lines: List[str] = []
    unreached: Set[Tuple[str, str]] = set()
    inventory: Set[Tuple[str, str]] = set()
    for path, found in spans.items():
        rel = path.relative_to(PACKAGE).as_posix()
        for first, qualname, start, end in found:
            inventory.add((rel, qualname))
            if (str(path), first) not in called:
                unreached.add((rel, qualname))
                lines.append(f"{path.relative_to(ROOT)}  {qualname}  {start}-{end}")
    header = (
        f"# {len(lines)} of {len(inventory)} functions under src/repro never called by "
        f"{len(selected)} entry point(s)"
    )
    problems = [] if args.only else judge(unreached, inventory)
    if failed:
        header += "\n# entry points with an unexpected exit code: " + "; ".join(failed)
    report = "\n".join([header, *lines, *(f"# {p}" for p in problems)]) + "\n"
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
