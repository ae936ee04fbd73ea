"""Static lint for simulation-specific hazards (``repro check --lint``).

Six ``ast``-based rules; the first four each target a bug class that the
dynamic checker cannot see (the buggy run never happens, or happens
silently), the last two keep one spelling of a sleep and of a timer:

``missing-yield-from``
    A *bare expression statement* calling a known sub-generator —
    ``armci.put(dst, vals)`` instead of ``yield from armci.put(...)`` —
    creates and discards the generator without running a single step.  The
    operation silently never executes.  Generator-ness is established by a
    whole-package pre-pass (any ``def`` whose own body contains ``yield``
    or ``yield from``).

``unseeded-nondeterminism``
    The simulator's contract is byte-identical repeated runs.  Global-state
    RNG calls (``random.random()``, ``random.randint(...)``), unseeded
    ``random.Random()`` constructions, and wall-clock reads
    (``time.time()``, ``perf_counter`` ...) break it.  Seeded
    ``random.Random(seed)`` is fine anywhere; :mod:`repro.net.params` is
    exempt wholesale (it is the one place allowed to mint default seeds).

``op-done-mutation``
    The ``op_done`` completion counters are the barrier protocol's ground
    truth; only the server thread may credit them.  Any reference to
    ``_bump_op_done`` / ``_op_done_addr`` outside ``runtime/server.py``
    is flagged.

``op-done-wait``
    Its sibling on the reading side: stage 2 of ``ARMCI_Barrier`` — wait
    until the local ``op_done`` counter reaches the stage-1 total (paper
    §3.1) — is written once, as ``_stage2`` in ``armci/barrier.py``, so
    the invariant lives in one function.  Any reference to
    ``op_done_cell`` outside ``runtime/server.py`` and that function is
    flagged.

``self-sleep-as-event``
    ``yield env.timeout(cost)`` as a statement allocates a ``Timeout``, a
    callbacks list and a bound method to wake exactly the process that
    made it.  A process sleeps by yielding the delay (``yield cost``);
    ``env.timeout()`` is for one side of a composed wait.

``timer-as-event``
    ``t = env.timeout(d)`` (or ``Timeout(env, d)``) whose only use is
    ``t.callbacks.append(handler)`` builds an event, a callbacks list and
    usually a closure for a timer nobody waits on.  Such a timer is a
    ``Call`` row: ``env.call(d, callbacks, a, b)`` — same heap key, no
    event (see :mod:`repro.sim.core`).

Four further *protocol-shape* rules (``send-unhandled-kind``,
``cs-yield-no-lease``, ``credit-mutation``, ``unguarded-view-read``) live
in :mod:`repro.analysis.protoshape` and run through the same entry
points; see that module's docstring for their rationale.

All rules operate on source text only — nothing is imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .protoshape import check_tree, collect_handled_kinds

__all__ = [
    "LintFinding",
    "RULE_YIELD_FROM",
    "RULE_UNSEEDED",
    "RULE_OP_DONE",
    "RULE_OP_DONE_WAIT",
    "RULE_SELF_SLEEP",
    "RULE_TIMER_EVENT",
    "collect_generator_names",
    "lint_source",
    "lint_paths",
    "run_lint",
    "render_findings",
]

RULE_YIELD_FROM = "missing-yield-from"
RULE_UNSEEDED = "unseeded-nondeterminism"
RULE_OP_DONE = "op-done-mutation"
RULE_OP_DONE_WAIT = "op-done-wait"
RULE_SELF_SLEEP = "self-sleep-as-event"
RULE_TIMER_EVENT = "timer-as-event"

#: ``(module, attribute)`` calls that read the wall clock.
_WALL_CLOCK: Set[Tuple[str, str]] = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}

#: Attributes whose mere mention outside the server is an op_done mutation
#: hazard (the bump helper and the raw counter-address table).
_OP_DONE_ATTRS = {"_bump_op_done", "_op_done_addr"}

#: Files exempt from the nondeterminism rule (path suffix match):
#: ``net/params.py`` is the one place allowed to mint default seeds;
#: ``experiments/scalebench.py`` and ``fuzz/campaign.py`` read the wall
#: clock only *around* whole simulation runs (throughput reporting and
#: the campaign time budget — their simulated outputs stay deterministic).
_RNG_EXEMPT_SUFFIX = (
    "net/params.py",
    "experiments/scalebench.py",
    "fuzz/campaign.py",
    "mc/explore.py",
)

#: The only file allowed to touch the op_done machinery.
_OP_DONE_HOME_SUFFIX = "runtime/server.py"

#: The one stage-2 function, the only reader of ``op_done_cell`` outside
#: the server: ``(path suffix, function name)``.
_STAGE2_HOME = ("armci/barrier.py", "_stage2")


@dataclass(frozen=True)
class LintFinding:
    """One static finding: where, which rule, and why."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def render_findings(findings: Sequence[LintFinding]) -> str:
    if not findings:
        return "lint: no findings"
    lines = [f.render() for f in findings]
    lines.append(f"lint: {len(findings)} finding(s)")
    return "\n".join(lines)


# -- generator-name pre-pass -----------------------------------------------


def _contains_yield(fn: ast.AST) -> bool:
    """True if the function's *own* body yields (nested defs excluded)."""
    stack: List[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _collect_def_names(trees: Iterable[ast.AST]) -> Tuple[Set[str], Set[str]]:
    """``(generator_names, plain_names)`` over every ``def`` in the trees."""
    gens: Set[str] = set()
    plains: Set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                (gens if _contains_yield(node) else plains).add(node.name)
    return gens, plains


def collect_generator_names(trees: Iterable[ast.AST]) -> Set[str]:
    """Names that *unambiguously* denote sub-generators across the trees.

    Matching is name-based, so a name is only flaggable when every ``def``
    of that name yields: ``release`` names both lock sub-generators and a
    semaphore's plain method, so a bare ``x.release()`` cannot be judged
    statically and is left alone (the dynamic checker covers the lock
    case); a bare ``armci.fence(...)`` is always a discarded generator.
    """
    gens, plains = _collect_def_names(trees)
    return gens - plains


def _call_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# -- the checker ------------------------------------------------------------


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str, generator_names: Set[str]):
        self.path = path
        self.generator_names = generator_names
        self.findings: List[LintFinding] = []
        norm = path.replace("\\", "/")
        self.rng_exempt = any(norm.endswith(s) for s in _RNG_EXEMPT_SUFFIX)
        self.op_done_home = norm.endswith(_OP_DONE_HOME_SUFFIX)
        self.stage2_file = norm.endswith(_STAGE2_HOME[0])
        #: Names of the enclosing ``def``s, innermost last.
        self.functions: List[str] = []

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            LintFinding(self.path, getattr(node, "lineno", 0), rule, message)
        )

    # missing yield from: a discarded sub-generator call as a statement.
    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            name = _call_name(value.func)
            if name in self.generator_names:
                self._add(
                    node,
                    RULE_YIELD_FROM,
                    f"bare call to sub-generator {name}() discards it; "
                    f"use 'yield from {name}(...)'",
                )
        elif (
            isinstance(value, ast.Yield)
            and isinstance(value.value, ast.Call)
            and isinstance(value.value.func, ast.Attribute)
            and value.value.func.attr == "timeout"
        ):
            args = value.value.args
            delay = ast.unparse(args[0]) if args else "<delay>"
            self._add(
                node,
                RULE_SELF_SLEEP,
                f"a process sleeps by yielding the delay: 'yield {delay}', "
                "not a timeout event nobody else can wait on",
            )
        self.generic_visit(node)

    # timer as event: a timeout whose only use is having callbacks appended.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        timers = {}
        stack: List[ast.AST] = list(node.body)
        while stack:  # the function's own statements, nested defs excluded
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if (
                isinstance(child, ast.Assign)
                and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
                and _makes_timeout(child.value)
            ):
                timers[child.targets[0].id] = child
            stack.extend(ast.iter_child_nodes(child))
        if timers:
            parents = {
                child: parent
                for parent in ast.walk(node)
                for child in ast.iter_child_nodes(parent)
            }
            uses: dict = {name: [] for name in timers}
            for use in ast.walk(node):
                if isinstance(use, ast.Name) and isinstance(use.ctx, ast.Load) and use.id in uses:
                    uses[use.id].append(_appends_callback(use, parents))
            for name, assign in timers.items():
                if uses[name] and all(uses[name]):
                    self._add(
                        assign,
                        RULE_TIMER_EVENT,
                        f"timer {name!r} is only given callbacks, nothing waits "
                        "on it: schedule a Call row with env.call(delay, "
                        "callbacks, a, b) instead of an event",
                    )
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if not self.rng_exempt:
                if base == "random":
                    if attr == "Random":
                        if not node.args and not node.keywords:
                            self._add(
                                node,
                                RULE_UNSEEDED,
                                "random.Random() without a seed is "
                                "nondeterministic; pass an explicit seed",
                            )
                    else:
                        self._add(
                            node,
                            RULE_UNSEEDED,
                            f"random.{attr}() uses the global RNG; construct "
                            "a seeded random.Random instead",
                        )
                elif (base, attr) in _WALL_CLOCK:
                    self._add(
                        node,
                        RULE_UNSEEDED,
                        f"{base}.{attr}() reads the wall clock inside the "
                        "deterministic simulator; use env.now",
                    )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _OP_DONE_ATTRS and not self.op_done_home:
            self._add(
                node,
                RULE_OP_DONE,
                f"reference to {node.attr} outside runtime/server.py; only "
                "the server thread may credit op_done counters",
            )
        elif node.attr == "op_done_cell" and not self.op_done_home and not (
            self.stage2_file and _STAGE2_HOME[1] in self.functions
        ):
            self._add(
                node,
                RULE_OP_DONE_WAIT,
                "reference to op_done_cell outside runtime/server.py and "
                "armci/barrier.py:_stage2; the barrier's op_done wait is "
                "written once",
            )
        self.generic_visit(node)


def _makes_timeout(value: ast.AST) -> bool:
    """``<x>.timeout(...)`` or ``Timeout(...)``."""
    return isinstance(value, ast.Call) and (
        (isinstance(value.func, ast.Attribute) and value.func.attr == "timeout")
        or (isinstance(value.func, ast.Name) and value.func.id == "Timeout")
    )


def _appends_callback(name: ast.Name, parents: dict) -> bool:
    """Is this use of ``name`` the receiver of ``name.callbacks.append(...)``?"""
    callbacks = parents.get(name)
    append = parents.get(callbacks)
    call = parents.get(append)
    return (
        isinstance(callbacks, ast.Attribute)
        and callbacks.attr == "callbacks"
        and isinstance(append, ast.Attribute)
        and append.attr == "append"
        and isinstance(call, ast.Call)
        and call.func is append
    )


# -- entry points ------------------------------------------------------------


def lint_source(
    source: str,
    path: str = "<memory>",
    generator_names: Optional[Set[str]] = None,
    handled_kinds: Optional[Set[str]] = None,
) -> List[LintFinding]:
    """Lint one source string (test/tooling entry point).

    ``generator_names`` extends the set discovered in ``source`` itself —
    pass names of sub-generators defined in other modules.
    ``handled_kinds`` likewise extends the message kinds considered
    handled for the protocol-shape pass.
    """
    tree = ast.parse(source, filename=path)
    names = collect_generator_names([tree])
    if generator_names:
        names |= set(generator_names)
    checker = _Checker(path, names)
    checker.visit(tree)
    kinds = collect_handled_kinds([tree])
    if handled_kinds:
        kinds |= set(handled_kinds)
    findings = checker.findings
    findings.extend(LintFinding(*raw) for raw in check_tree(path, tree, kinds))
    findings.sort(key=lambda f: (f.path, f.line))
    return findings


def lint_paths(paths: Sequence[str]) -> List[LintFinding]:
    """Lint a set of files with shared generator-name / kind pre-passes."""
    parsed = []
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        parsed.append((str(path), ast.parse(text, filename=str(path))))
    names = collect_generator_names(tree for _, tree in parsed)
    kinds = collect_handled_kinds(tree for _, tree in parsed)
    findings: List[LintFinding] = []
    for path, tree in parsed:
        checker = _Checker(path, names)
        checker.visit(tree)
        findings.extend(checker.findings)
        findings.extend(
            LintFinding(*raw) for raw in check_tree(path, tree, kinds)
        )
    findings.sort(key=lambda f: (f.path, f.line))
    return findings


def run_lint(root: Optional[str] = None) -> List[LintFinding]:
    """Lint the whole ``repro`` package (default) or a directory tree."""
    base = Path(root) if root is not None else Path(__file__).resolve().parents[1]
    paths = sorted(str(p) for p in base.rglob("*.py"))
    return lint_paths(paths)
