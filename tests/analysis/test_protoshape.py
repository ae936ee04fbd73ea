"""Tests for the protocol-shape lint rules.

Each rule is validated by a seeded mutant (a minimal snippet carrying the
bug the rule hunts) plus a clean twin (the same shape with the guard in
place), mirroring the dynamic fuzzer's mutant/twin discipline.
"""

from __future__ import annotations

import textwrap

from repro.analysis.lint import lint_source, run_lint
from repro.analysis.protoshape import (
    RULE_CS_LEASE,
    RULE_SEND_KIND,
    RULE_VIEW_READ,
    collect_handled_kinds,
)


def _lint(code, **kwargs):
    return lint_source(textwrap.dedent(code), **kwargs)


def _rules(findings):
    return [f.rule for f in findings]


class TestSendUnhandledKind:
    MUTANT = """
    class Daemon:
        def _daemon_loop(self):
            while True:
                msg = yield from self._recv()
                if msg.kind == "request":
                    pass
                elif msg.kind == "token":
                    pass

        def _ask(self, dst):
            yield from self._send(dst, "reqest")
    """

    CLEAN = """
    class Daemon:
        def _daemon_loop(self):
            while True:
                msg = yield from self._recv()
                if msg.kind == "request":
                    pass
                elif msg.kind == "token":
                    pass

        def _ask(self, dst):
            yield from self._send(dst, "request")
    """

    def test_typoed_kind_flagged(self):
        findings = _lint(self.MUTANT)
        assert _rules(findings) == [RULE_SEND_KIND]
        assert "'reqest'" in findings[0].message

    def test_handled_kind_clean(self):
        assert _lint(self.CLEAN) == []

    def test_cross_module_kinds_respected(self):
        # The sender module alone does not know the handler's kinds; the
        # shared pre-pass (here: the handled_kinds parameter) supplies them.
        sender = """
        class Lock:
            def _acquire(self):
                yield from self._send(0, "local_request")
        """
        assert _rules(_lint(sender)) == [RULE_SEND_KIND]
        assert _lint(sender, handled_kinds={"local_request"}) == []

    def test_membership_in_comparison_collected(self):
        import ast

        tree = ast.parse(
            textwrap.dedent(
                """
                def h(msg):
                    if msg.kind in ("a", "b"):
                        pass
                    elif "c" == msg.kind:
                        pass
                """
            )
        )
        assert collect_handled_kinds([tree]) == {"a", "b", "c"}

    def test_dynamic_kind_not_flagged(self):
        # Non-literal kinds cannot be judged statically.
        code = """
        class Daemon:
            def _fwd(self, dst, kind):
                yield from self._send(dst, kind)
        """
        assert _lint(code) == []


class TestCsYieldNoLease:
    MUTANT = """
    class Lock:
        def _daemon_loop(self):
            while True:
                msg = yield from self._recv()
                if msg.kind == "token":
                    self.in_cs = True
    """

    CLEAN = """
    class Lock:
        def _daemon_loop(self):
            while True:
                msg = yield from self._recv()
                if msg.kind == "token":
                    self.in_cs = True
                elif msg.kind == "view_change":
                    self._apply_view_change(msg.payload)

        def _apply_view_change(self, info):
            self.in_cs = False
    """

    def test_yielding_cs_without_recovery_flagged(self):
        findings = _lint(self.MUTANT)
        assert RULE_CS_LEASE in _rules(findings)

    def test_recovery_path_clean(self):
        assert _lint(self.CLEAN) == []

    def test_non_yielding_setter_clean(self):
        # Setting the flag in a plain method has no suspension window.
        code = """
        class Lock:
            def grant(self):
                self.in_cs = True
        """
        assert _lint(code) == []


class TestUnguardedViewRead:
    MUTANT = """
    class Daemon:
        def _daemon_loop(self):
            while True:
                msg = yield from self._recv()
                if msg.kind == "request":
                    if self.membership.node_dead(msg.src):
                        continue
    """

    CLEAN = """
    class Daemon:
        def _daemon_loop(self):
            while True:
                msg = yield from self._recv()
                if msg.kind == "request":
                    if msg.payload < self._view_epoch:
                        continue
                    if self.membership.node_dead(msg.src):
                        continue
    """

    def test_view_read_without_epoch_flagged(self):
        findings = _lint(self.MUTANT)
        assert _rules(findings) == [RULE_VIEW_READ]
        assert "node_dead" in findings[0].message

    def test_epoch_guard_clean(self):
        assert _lint(self.CLEAN) == []

    def test_non_dispatch_reader_clean(self):
        # View reads outside kind-dispatching handlers (barrier/fence
        # bodies) have their own guards and are out of scope here.
        code = """
        def fence(membership, node):
            if membership.node_dead(node):
                return
            yield
        """
        assert _lint(code) == []


class TestRepoIsClean:
    def test_repro_package_has_no_shape_findings(self):
        assert run_lint() == []
