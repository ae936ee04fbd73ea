"""Tests for the RMCSan static lint pass."""

from __future__ import annotations

import textwrap

from repro.analysis.lint import (
    RULE_OP_DONE,
    RULE_OP_DONE_WAIT,
    RULE_TIMER_EVENT,
    RULE_UNSEEDED,
    RULE_YIELD_FROM,
    lint_source,
    render_findings,
    run_lint,
)


def _lint(code, **kwargs):
    return lint_source(textwrap.dedent(code), **kwargs)


class TestYieldFrom:
    def test_bare_call_of_local_generator_flagged(self):
        findings = _lint(
            """
            def stepper():
                yield 1

            def driver():
                stepper()
                yield 2
            """
        )
        assert [f.rule for f in findings] == [RULE_YIELD_FROM]
        assert findings[0].line == 6

    def test_yield_from_is_clean(self):
        findings = _lint(
            """
            def stepper():
                yield 1

            def driver():
                yield from stepper()
            """
        )
        assert findings == []

    def test_known_generator_method_flagged(self):
        findings = _lint(
            """
            def workload(armci):
                armci.fence(1)
                yield
            """,
            generator_names={"fence"},
        )
        assert [f.rule for f in findings] == [RULE_YIELD_FROM]

    def test_ambiguous_name_not_flagged(self):
        # ``release`` names both a generator (lock) and a plain method
        # (semaphore) in the tree set, so a bare call stays unflagged.
        findings = _lint(
            """
            def release(self):
                yield from self._release()

            class Pool:
                def release(self):
                    self.count += 1

            def user(lock):
                lock.release()
                yield
            """
        )
        assert findings == []


class TestUnseededNondeterminism:
    def test_default_random_flagged(self):
        findings = _lint(
            """
            import random

            def jitter():
                return random.Random()
            """
        )
        assert [f.rule for f in findings] == [RULE_UNSEEDED]

    def test_seeded_random_is_clean(self):
        findings = _lint(
            """
            import random

            def jitter(seed):
                return random.Random(seed)
            """
        )
        assert findings == []

    def test_module_level_random_call_flagged(self):
        findings = _lint("import random\nx = random.randint(0, 9)\n")
        assert [f.rule for f in findings] == [RULE_UNSEEDED]

    def test_wall_clock_flagged(self):
        findings = _lint(
            """
            import time

            def now():
                return time.perf_counter()
            """
        )
        assert [f.rule for f in findings] == [RULE_UNSEEDED]

    def test_params_module_exempt(self):
        findings = _lint(
            "import random\nx = random.Random()\n",
            path="src/repro/net/params.py",
        )
        assert findings == []


class TestOpDoneMutation:
    def test_bump_outside_server_flagged(self):
        findings = _lint(
            """
            def cheat(server, rank):
                server._bump_op_done(rank)
            """
        )
        assert [f.rule for f in findings] == [RULE_OP_DONE]

    def test_server_module_exempt(self):
        findings = _lint(
            """
            def dispatch(self, rank):
                self._bump_op_done(rank)
            """,
            path="src/repro/runtime/server.py",
        )
        assert findings == []


class TestOpDoneWait:
    def test_second_stage2_loop_flagged(self):
        # A stage-2 loop of a barrier algorithm's own, next to the one.
        findings = _lint(
            """
            def my_stage2(armci, target):
                region, addr = armci.server.op_done_cell(armci.rank)
                yield from region.wait_until(addr, lambda v: v >= target)
            """,
            path="src/repro/topo/algorithms.py",
        )
        assert [f.rule for f in findings] == [RULE_OP_DONE_WAIT]

    def test_flagged_in_barrier_module_outside_stage2(self):
        findings = _lint(
            """
            def _stage2_wait_resilient(armci, totals):
                region, addr = armci.server.op_done_cell(armci.rank)
                return region.read(addr)
            """,
            path="src/repro/armci/barrier.py",
        )
        assert [f.rule for f in findings] == [RULE_OP_DONE_WAIT]

    def test_the_one_stage2_and_the_server_are_clean(self):
        stage2 = """
            def _stage2(armci, total):
                region, addr = armci.server.op_done_cell(armci.rank)
                yield from region.wait_until(addr, lambda v: v >= total)
                return total
            """
        assert _lint(stage2, path="src/repro/armci/barrier.py") == []
        server = """
            def op_done(self, rank):
                region, addr = self.op_done_cell(rank)
                return region.read(addr)
            """
        assert _lint(server, path="src/repro/runtime/server.py") == []


class TestTimerAsEvent:
    def test_callback_only_timeout_flagged(self):
        # The shape NicEngine.mirror_push had before its DMA became a row.
        findings = _lint(
            """
            def mirror_push(self, rank, value):
                p = self.params
                delay = p.nic_dma_us + SLOT_BYTES * p.nic_dma_per_byte_us
                push = self.env.timeout(delay)
                push.callbacks.append(lambda _ev: self._mirror_arrived(rank, value))
            """
        )
        assert [(f.rule, f.line) for f in findings] == [(RULE_TIMER_EVENT, 5)]
        assert "'push'" in findings[0].message

    def test_timeout_class_flagged(self):
        findings = _lint(
            """
            def arm(env, frame):
                timer = Timeout(env, 5.0)
                timer.callbacks.append(frame.expire)
            """
        )
        assert [f.rule for f in findings] == [RULE_TIMER_EVENT]

    def test_composed_wait_is_clean(self):
        findings = _lint(
            """
            def serve(env, inbox, spin_us):
                get_ev = inbox.get()
                spin_deadline = env.timeout(spin_us)
                got = yield get_ev | spin_deadline
                return got

            def serve_inline(env, inbox, spin_us):
                get_ev = inbox.get()
                yield get_ev | env.timeout(spin_us)
            """
        )
        assert findings == []

    def test_timer_that_is_also_waited_on_is_clean(self):
        findings = _lint(
            """
            def watchdog(env, on_fire):
                deadline = env.timeout(10.0)
                deadline.callbacks.append(on_fire)
                yield deadline
            """
        )
        assert findings == []

    def test_env_call_is_clean(self):
        assert _lint("def arm(env, cbs, frame):\n    env.call(5.0, cbs, frame)\n") == []


class TestRepoIsClean:
    def test_run_lint_finds_nothing(self):
        assert run_lint() == []

    def test_render_no_findings(self):
        assert render_findings([]) == "lint: no findings"

    def test_render_lists_each_finding(self):
        findings = _lint("import random\nx = random.random()\n")
        text = render_findings(findings)
        assert RULE_UNSEEDED in text
        assert "1 finding" in text
