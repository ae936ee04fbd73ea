"""Static protocol-shape analysis (the RMCheck companion linter).

Where :mod:`repro.analysis.lint` targets simulator-contract hazards,
these four rules target *protocol-shape* hazards: structural mistakes in
message-passing code that produce schedules the dynamic checkers only
catch if the fuzzer or model checker happens to drive the run into them.
Shape analysis flags them on every run of ``repro check --lint``.

``send-unhandled-kind``
    Token-lock daemons dispatch on string message kinds
    (``msg.kind == "request"`` elif-chains).  A ``self._send(dst, "kindo")``
    whose kind literal is never compared against ``.kind`` anywhere in the
    linted set is a message no handler will ever match — it falls through
    to the daemon's ``unknown message`` arm at runtime, but only on the
    schedule that delivers it.  Kind collection is a whole-package
    pre-pass (like the generator-name pre-pass in :mod:`.lint`).

``cs-yield-no-lease``
    A daemon that sets a critical-section flag (``self.in_cs = True``)
    and then yields has windows where the lock holder is suspended while
    membership can change under it.  Such a class must have a lease/view
    recovery path: a ``view_change`` message arm or an
    ``_apply_view_change`` method.  Without one, a crash during the
    critical section strands the token forever.

``credit-mutation``
    The GM-style send-credit machinery is the flow-control ground truth.
    The raw pool state (``_credits`` / ``_credit_pool``) may only be
    touched by its home module ``armci/api.py``; the instrumented
    take/return helpers may additionally be *called* from
    ``armci/nonblocking.py`` (the split-phase paths).  Any other
    reference can unbalance the pool and deadlock senders.

``unguarded-view-read``
    A message handler (a function dispatching on ``.kind``) that reads a
    membership view (``node_dead``, ``written_off``, ``alive_ranks``,
    ...) races with view changes: the message may predate the view it is
    judged against.  Handlers that consult views must also reference an
    epoch guard (``_view_epoch`` / ``epoch`` / ``_token_epoch_floor``)
    so stale messages are fenced, as the token locks do.

All rules operate on source text only — nothing is imported or executed.
Findings are plain ``(path, line, rule, message)`` tuples; the
:mod:`.lint` front end wraps them into :class:`~repro.analysis.lint.LintFinding`.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

__all__ = [
    "RULE_SEND_KIND",
    "RULE_CS_LEASE",
    "RULE_CREDIT",
    "RULE_VIEW_READ",
    "collect_handled_kinds",
    "check_tree",
]

RULE_SEND_KIND = "send-unhandled-kind"
RULE_CS_LEASE = "cs-yield-no-lease"
RULE_CREDIT = "credit-mutation"
RULE_VIEW_READ = "unguarded-view-read"

#: Raw credit-pool state and its instrumented setters: only the module
#: that issues the operations (every form of them) may reference either.
_CREDIT_RAW = {"_credits", "_credit_pool"}
_CREDIT_HELPERS = {"_take_credit", "_return_credit"}
_CREDIT_HOME = "armci/api.py"

#: Membership-view accessors whose result can be stale inside a handler.
_VIEW_READS = {
    "node_dead",
    "written_off",
    "alive_ranks",
    "dead_nodes",
    "dead_ranks",
    "survivors",
}

#: Referencing any of these counts as an epoch guard.
_EPOCH_GUARDS = {"epoch", "view_epoch", "_view_epoch", "_token_epoch_floor"}

RawFinding = Tuple[str, int, str, str]


# -- handled-kind pre-pass ---------------------------------------------------


def _string_consts(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out: List[str] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
        return out
    return []


def collect_handled_kinds(trees: Iterable[ast.AST]) -> Set[str]:
    """Every string literal compared against a ``.kind`` attribute.

    Covers ``x.kind == "req"``, ``"req" == x.kind`` and
    ``x.kind in ("req", "tok")`` across all the trees — the dispatch
    idioms the protocol daemons use.
    """
    kinds: Set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            if not any(
                isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides
            ):
                continue
            for side in sides:
                kinds.update(_string_consts(side))
    return kinds


# -- per-function helpers ----------------------------------------------------


def _own_body(fn: ast.AST) -> Iterable[ast.AST]:
    """Walk a function's own body, excluding nested function scopes."""
    stack: List[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _dispatches_on_kind(fn: ast.AST) -> bool:
    for node in _own_body(fn):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides):
                return True
    return False


def _sets_in_cs(fn: ast.AST) -> Optional[ast.AST]:
    """The first ``self.in_cs = True`` assignment in the function, if any."""
    for node in _own_body(fn):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Attribute) and t.attr == "in_cs" for t in node.targets
        ):
            continue
        if isinstance(node.value, ast.Constant) and node.value.value is True:
            return node
    return None


def _yields(fn: ast.AST) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in _own_body(fn)
    )


def _class_has_lease_recovery(cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef) and node.name == "_apply_view_change":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "_apply_view_change":
            return True
        if isinstance(node, ast.Constant) and node.value == "view_change":
            return True
    return False


# -- the checker -------------------------------------------------------------


class _ShapeChecker(ast.NodeVisitor):
    def __init__(self, path: str, handled_kinds: Set[str]):
        self.path = path
        self.handled_kinds = handled_kinds
        self.findings: List[RawFinding] = []
        self.credit_home = path.replace("\\", "/").endswith(_CREDIT_HOME)

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            (self.path, getattr(node, "lineno", 0), rule, message)
        )

    # send-unhandled-kind: literal kind in a _send() call nobody dispatches on.
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name == "_send" and len(node.args) >= 2:
            kind_arg = node.args[1]
            if isinstance(kind_arg, ast.Constant) and isinstance(
                kind_arg.value, str
            ):
                kind = kind_arg.value
                if kind not in self.handled_kinds:
                    self._add(
                        node,
                        RULE_SEND_KIND,
                        f"_send(..., {kind!r}) has no matching handler: no "
                        f"dispatch compares .kind against {kind!r}",
                    )
        self.generic_visit(node)

    # credit-mutation: raw pool / helper references outside their homes.
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _CREDIT_RAW and not self.credit_home:
            self._add(
                node,
                RULE_CREDIT,
                f"reference to {node.attr} outside armci/api.py; only the "
                "instrumented credit setters may touch the pool state",
            )
        elif node.attr in _CREDIT_HELPERS and not self.credit_home:
            self._add(
                node,
                RULE_CREDIT,
                f"call to {node.attr} outside armci/api.py can unbalance "
                "the send-credit pool",
            )
        self.generic_visit(node)

    # cs-yield-no-lease: yielding daemon holds in_cs, class has no recovery.
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        recovered = _class_has_lease_recovery(node)
        if not recovered:
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                assign = _sets_in_cs(item)
                if assign is not None and _yields(item):
                    self._add(
                        assign,
                        RULE_CS_LEASE,
                        f"{node.name}.{item.name} enters a critical section "
                        "and yields, but the class has no view-change/lease "
                        "recovery path (_apply_view_change or a "
                        "'view_change' handler)",
                    )
        self.generic_visit(node)

    # unguarded-view-read: kind-dispatching handler reads membership views
    # without any epoch reference.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if _dispatches_on_kind(node):
            reads = [
                n
                for n in _own_body(node)
                if isinstance(n, ast.Attribute) and n.attr in _VIEW_READS
            ]
            if reads:
                guarded = any(
                    (isinstance(n, ast.Attribute) and n.attr in _EPOCH_GUARDS)
                    or (isinstance(n, ast.Name) and n.id in _EPOCH_GUARDS)
                    for n in _own_body(node)
                )
                if not guarded:
                    for read in reads:
                        self._add(
                            read,
                            RULE_VIEW_READ,
                            f"handler {node.name} reads membership view "
                            f".{read.attr} without an epoch guard; stale "
                            "messages can be judged against the wrong view",
                        )
        self.generic_visit(node)


# -- entry point -------------------------------------------------------------


def check_tree(
    path: str, tree: ast.AST, handled_kinds: Set[str]
) -> List[RawFinding]:
    """Run the four shape rules over one parsed module."""
    checker = _ShapeChecker(path, handled_kinds)
    checker.visit(tree)
    return checker.findings
