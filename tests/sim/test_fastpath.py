"""Regression tests for the kernel fast paths (see docs/performance.md).

These pin the *semantic* contracts of the perf work: O(1) completion
tracking in wide conditions, no shim-event allocation when a process
yields an already-processed event, event objects never being reused, and
the ``run(until=...)`` edge cases the run loops must preserve.
"""

import pytest

from repro.sim.core import (
    AllOf,
    Environment,
    Event,
    SimulationError,
    Timeout,
)


@pytest.fixture
def env():
    return Environment()


class TestWideAllOf:
    """Condition._check builds the done-list incrementally (no rescans)."""

    def test_wide_allof_completes_with_all_values(self, env):
        n = 2000
        events = [env.event() for _ in range(n)]
        cond = AllOf(env, events)
        for i, ev in enumerate(events):
            ev.succeed(i)
        env.run()
        assert cond.processed
        value = cond.value
        assert len(value) == n
        assert [value[ev] for ev in events] == list(range(n))

    def test_done_list_is_in_completion_order(self, env):
        events = [env.event() for _ in range(5)]
        cond = AllOf(env, events)
        # Trigger in scrambled order; completion order follows trigger order
        # (same time, FIFO by schedule sequence).
        order = [3, 0, 4, 1, 2]
        for i in order:
            events[i].succeed(i)
        env.run()
        assert list(cond.value) == [events[i] for i in order]

    def test_completion_count_tracked_incrementally(self, env):
        events = [env.event() for _ in range(8)]
        cond = AllOf(env, events)
        for ev in events[:3]:
            ev.succeed()
        env.run()
        # 3 sub-events processed, condition still pending: the incremental
        # counter has seen exactly the processed ones.
        assert cond._count == 3
        assert len(cond._done) == 3
        assert not cond.triggered

    def test_failure_still_propagates_first(self, env):
        events = [env.event() for _ in range(10)]
        cond = AllOf(env, events)
        events[0].succeed(0)
        boom = RuntimeError("boom")
        events[1].fail(boom)
        with pytest.raises(RuntimeError):
            env.run()
        assert cond.triggered and not cond._ok
        assert cond.value is boom


class TestFastResume:
    """Yielding a processed event must not allocate a shim queue entry."""

    def test_yield_processed_event_adds_no_queue_entries(self, env):
        done = env.event()
        done.succeed(41)
        env.run()
        assert done.processed
        base_seq = env._seq
        results = []

        def proc():
            value = yield done
            results.append(value)

        env.process(proc())
        env.run()
        assert results == [41]
        # Exactly two schedules: the process's start row and its own
        # completion event.  A shim Event for the processed target would
        # make it three.
        assert env._seq - base_seq == 2

    def test_chain_of_processed_events_resumes_in_one_wakeup(self, env):
        first, second, third = env.event(), env.event(), env.event()
        for i, ev in enumerate((first, second, third)):
            ev.succeed(i)
        env.run()
        base_processed = env.events_processed
        base_seq = env._seq
        seen = []

        def proc():
            seen.append((yield first))
            seen.append((yield second))
            seen.append((yield third))

        env.process(proc())
        env.run()
        assert seen == [0, 1, 2]
        # Still only the start row + completion, regardless of chain length.
        assert env._seq - base_seq == 2
        assert env.events_processed - base_processed == 2

    def test_failed_processed_event_still_raises_in_process(self, env):
        failed = env.event()
        failed.fail(ValueError("nope"))
        failed._defused = True
        env.run()
        caught = []

        def proc():
            try:
                yield failed
            except ValueError as exc:
                caught.append(exc)

        env.process(proc())
        env.run()
        assert len(caught) == 1


class TestSlabReuse:
    """Written against the kernel's former free lists; what they pin — values
    survive, a held event is never handed out again — holds with none."""

    def test_timeout_values_survive_reuse(self, env):
        total = []

        def proc():
            for i in range(3000):
                value = yield env.timeout(1.0, value=i)
                total.append(value)

        env.process(proc())
        env.run()
        assert total == list(range(3000))
        assert env.now == 3000.0

    def test_held_event_is_not_recycled(self, env):
        held = env.event()
        held.succeed("keep")
        env.run()
        # Someone still references `held`, so it must not be on the free
        # list: a fresh event must be a different object.
        fresh = env.event()
        assert fresh is not held
        assert held.value == "keep"


class TestRunUntilEdgeCases:
    def test_until_equal_to_now_processes_current_instant(self, env):
        fired = []
        env.timeout(0.0).callbacks.append(lambda ev: fired.append("now"))
        env.timeout(1.0).callbacks.append(lambda ev: fired.append("later"))
        env.run(until=env.now)
        assert fired == ["now"]
        assert env.now == 0.0

    def test_until_already_failed_event_raises(self, env):
        failed = env.event()
        failed.fail(RuntimeError("already failed"))
        failed._defused = True
        env.run()
        assert failed.processed and not failed._ok
        with pytest.raises(RuntimeError, match="already failed"):
            env.run(until=failed)

    def test_until_already_succeeded_event_returns_value(self, env):
        done = env.event()
        done.succeed("ready")
        env.run()
        assert env.run(until=done) == "ready"

    def test_queue_draining_exactly_at_stop_at(self, env):
        fired = []
        env.timeout(5.0).callbacks.append(lambda ev: fired.append(5.0))
        env.run(until=5.0)
        # The event at exactly stop_at is processed and the clock lands on
        # stop_at, not beyond it.
        assert fired == [5.0]
        assert env.now == 5.0
        assert env.peek() == float("inf")

    def test_drained_queue_advances_clock_to_stop_at(self, env):
        env.timeout(1.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_until_in_the_past_rejected(self, env):
        env.timeout(3.0)
        env.run()
        assert env.now == 3.0
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_awaited_event_never_firing_is_deadlock(self, env):
        never = env.event()
        with pytest.raises(SimulationError):
            env.run(until=never)
