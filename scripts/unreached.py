#!/usr/bin/env python
"""Which functions under ``src/repro`` does no entry point ever call?

The reachability pass behind the repo's deletion PRs, checked in so the
next one starts from a measured list instead of a guess.  Every non-test
entry point — each CLI command (the CI chaos/partition matrix and every
``--lock`` kind included), the fuzzer's self-test, corpus and a seed
sweep, every RMCheck target, ``check`` and its lint, ``validate``,
``regenerate_results.py --check``, the examples, ``benchmarks/``,
``calibrate.py`` and the perfbench workloads — runs once at a small size
in its own interpreter under a ``sys.setprofile`` hook that records
function-call events for files under ``src/repro``.  What the union never
called is printed as ``file  qualname  lines``.

    python scripts/unreached.py                  # everything (tens of minutes)
    python scripts/unreached.py --only chaos     # entries whose name matches
    python scripts/unreached.py --out unreached.txt

Standard library plus ``repro.cli.COMMANDS`` (every command must have an
entry).  Unreached is evidence, not a verdict: fault
handling that no stock scenario triggers, and reference implementations
that only tests compare against, are expected on the list.
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
from typing import Iterator, List, Set, Tuple

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


def entries() -> List[Tuple[str, List[str]]]:
    """``(name, argv)`` per entry point; argv is what follows ``python``."""
    cli = [
        "fig7 --procs 2 4 --iterations 3",
        "fig8 --procs 2 4 --iterations 3",
        "fig9 --procs 2 4 --iterations 3",
        "fig10 --procs 2 4 --iterations 3",
        "locks --procs 2 4 --iterations 3",
        "locks --procs 4 --ppn 2 --iterations 3 --network gige",
        # Full size (~15 s unprofiled): the studies fix their own sweeps.
        "ablations",
        "app --procs 2 4",
        "microbench",
        "fairness --procs 4 --iterations 10",
        "faults --procs 4",
        "fig7 --procs 4 --iterations 3 --drop-rate 0.05 --fault-seed 3",
        f"fig7 --procs 2 --iterations 2 --trace-out {os.devnull}",
        "chaos",
        *(f"chaos --lock {kind}" for kind in LOCK_KINDS),
        *(f"chaos {args}" for args in CHAOS_MATRIX),
        "nic --iterations 3 --procs 2 4",
        "scalebench --procs 64 --iterations 2",
        f"scalebench --procs 64 256 --iterations 2 {HIER}",
        f"scalebench --procs 1024 --iterations 1 {HIER} --coalesce",
        "fuzz --seeds 25",
        "fuzz --self-test",
        "fuzz --corpus tests/fuzz/corpus",
        "fuzz --replay 7",
        "fuzz --start-seed 39 --seeds 1",  # a red seed: the shrinker's caller
        "mc",
        "mc --self-test",
        "validate",
        "check",
        "check chaos",
        "check partition",
        "check topo",
        "check --lint --strict",
        "all --procs 2 4 --iterations 3",
    ]
    from repro.cli import COMMANDS

    missing = set(COMMANDS) - {line.split()[0] for line in cli}
    if missing:
        raise SystemExit(f"unreached.py: no entry runs repro {sorted(missing)}")
    out = [(f"repro {line}", ["-m", "repro", *line.split()]) for line in cli]
    out.append(
        ("regenerate_results --check", ["scripts/regenerate_results.py", "--check"])
    )
    out.append(("calibrate", ["scripts/calibrate.py"]))
    out += [
        (f"examples/{path.name}", [str(path.relative_to(ROOT))])
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    # --benchmark-disable: pytest-benchmark's timed rounds swap the profile
    # hook out, so the bodies would run unobserved.
    out.append(
        ("benchmarks", ["-m", "pytest", "benchmarks", "--benchmark-disable", "-q"])
    )
    # The throughput gate means nothing under a profile hook, and the
    # report must not land on the checked-in BENCH_simkernel.json.
    out.append(
        (
            "bench_simkernel",
            ["benchmarks/perf/bench_simkernel.py", "--iterations", "2", "--repeats", "1",
             "--max-regression", "1.0", "--out", os.devnull],
        )
    )
    out.append(("perfbench --quick", ["perfbench/run.py", "--quick"]))
    return out


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="run only entries whose name contains this")
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args()
    if args.child:
        return run_child(args.child, rest[1:] if rest[:1] == ["--"] else rest)

    selected = [e for e in entries() if not args.only or args.only in e[0]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    called: Set[Tuple[str, int]] = set()
    failed: List[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for index, (name, argv) in enumerate(selected):
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
            if done.returncode != 0:
                failed.append(f"{name} (exit {done.returncode})")
                print(done.stderr[-2000:], file=sys.stderr)
            if os.path.exists(calls):
                with open(calls, encoding="utf-8") as fh:
                    for line in fh:
                        filename, lineno = line.rstrip("\n").split("\t")
                        called.add((filename, int(lineno)))

    lines: List[str] = []
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for first, qualname, start, end in sorted(functions(path)):
            total += 1
            if (str(path), first) not in called:
                lines.append(f"{path.relative_to(ROOT)}  {qualname}  {start}-{end}")
    header = (
        f"# {len(lines)} of {total} functions under src/repro never called by "
        f"{len(selected)} entry point(s)"
    )
    if failed:
        header += "\n# entry points that exited nonzero: " + "; ".join(failed)
    report = "\n".join([header, *lines]) + "\n"
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    # A report, not a gate: only a broken pass (an entry point that no
    # longer runs) is an error.
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
