"""Unit tests for the discrete-event simulation kernel."""

import gc
import heapq
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import core

from repro.net.params import myrinet2000
from repro.runtime.cluster import ClusterRuntime, DeadlockError
from repro.sim.core import (
    AllOf,
    Condition,
    Environment,
    Event,
    Process,
    SchedulerStrategy,
    SimulationError,
    Timeout,
    PRIORITY_LAZY,
    PRIORITY_URGENT,
)


class TestEnvironmentClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=42.5).now == 42.5

    def test_run_until_time_advances_clock(self, env):
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_time_raises(self, env):
        env.run(until=5.0)
        with pytest.raises(ValueError, match="in the past"):
            env.run(until=1.0)

    def test_events_processed_counter(self, env):
        env.timeout(1)
        env.timeout(2)
        env.run()
        assert env.events_processed == 2


class TestTimeout:
    def test_fires_after_delay(self, env):
        fired = []
        t = env.timeout(5.0, value="x")
        t.callbacks.append(lambda ev: fired.append((env.now, ev.value)))
        env.run()
        assert fired == [(5.0, "x")]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError, match="negative delay"):
            env.timeout(-1.0)

    def test_zero_delay_fires_now(self, env):
        t = env.timeout(0.0)
        env.run()
        assert t.processed and env.now == 0.0

    def test_timeouts_fire_in_time_order(self, env):
        order = []
        for delay in (3.0, 1.0, 2.0):
            t = env.timeout(delay, value=delay)
            t.callbacks.append(lambda ev: order.append(ev.value))
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_fifo_among_equal_times(self, env):
        order = []
        for tag in "abc":
            t = env.timeout(1.0, value=tag)
            t.callbacks.append(lambda ev: order.append(ev.value))
        env.run()
        assert order == ["a", "b", "c"]

    def test_priority_beats_fifo_at_same_time(self, env):
        order = []
        normal = Event(env)
        normal.succeed("normal")
        urgent = Event(env)
        urgent._ok = True
        urgent._value = "urgent"
        env.schedule(urgent, 0.0, PRIORITY_URGENT)
        lazy = Event(env)
        lazy._ok = True
        lazy._value = "lazy"
        env.schedule(lazy, 0.0, PRIORITY_LAZY)
        for ev in (normal, urgent, lazy):
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["urgent", "normal", "lazy"]


class TestEvent:
    def test_initially_pending(self, env):
        ev = env.event()
        assert not ev.triggered and not ev.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().ok

    def test_succeed_sets_value(self, env):
        ev = env.event().succeed(7)
        assert ev.triggered and ev.ok and ev.value == 7

    def test_double_succeed_raises(self, env):
        ev = env.event().succeed()
        with pytest.raises(SimulationError, match="already been triggered"):
            ev.succeed()

    def test_fail_then_succeed_raises(self, env):
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        ev._defused = True
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_propagates_from_run(self, env):
        env.event().fail(RuntimeError("nobody caught me"))
        with pytest.raises(RuntimeError, match="nobody caught me"):
            env.run()




class TestProcess:
    def test_return_value_is_event_value(self, env):
        def proc():
            yield env.timeout(1)
            return 99

        p = env.process(proc())
        env.run()
        assert p.value == 99

    def test_is_alive_transitions(self, env):
        def proc():
            yield env.timeout(5)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_join_another_process(self, env):
        def worker():
            yield env.timeout(3)
            return "done"

        def waiter(wp):
            result = yield wp
            return (env.now, result)

        wp = env.process(worker())
        joiner = env.process(waiter(wp))
        env.run()
        assert joiner.value == (3.0, "done")

    def test_exception_propagates_to_run(self, env):
        def bad():
            yield env.timeout(1)
            raise ValueError("inside process")

        env.process(bad())
        with pytest.raises(ValueError, match="inside process"):
            env.run()

    def test_exception_catchable_by_joiner(self, env):
        def bad():
            yield env.timeout(1)
            raise ValueError("caught me")

        def joiner(bp):
            try:
                yield bp
            except ValueError as exc:
                return str(exc)

        bp = env.process(bad())
        jp = env.process(joiner(bp))
        env.run()
        assert jp.value == "caught me"

    def test_yield_non_event_raises(self, env):
        def proc():
            yield "42"  # a number would be a sleep

        env.process(proc())
        with pytest.raises(SimulationError, match="not.*an Event|not an Event"):
            env.run()

    def test_yield_processed_event_resumes_immediately(self, env):
        done = env.event().succeed("v")

        def proc():
            # run one step so `done` gets processed first
            yield env.timeout(1)
            value = yield done
            return (env.now, value)

        p = env.process(proc())
        env.run()
        assert p.value == (1.0, "v")

    def test_yield_from_composition(self, env):
        def inner():
            yield env.timeout(2)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        p = env.process(outer())
        env.run()
        assert p.value == 20 and env.now == 4.0

    def test_process_name_default_and_custom(self, env):
        def named():
            yield env.timeout(0)

        p1 = env.process(named())
        p2 = env.process(named(), name="custom")
        assert p1.name == "named" and p2.name == "custom"
        env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            Process(env, lambda: None)


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        t1, t2 = env.timeout(1, "a"), env.timeout(5, "b")

        def proc():
            result = yield AllOf(env, [t1, t2])
            return (env.now, result[t1], result[t2])

        p = env.process(proc())
        env.run()
        assert p.value == (5.0, "a", "b")

    def test_any_of_fires_on_first(self, env):
        t1, t2 = env.timeout(1, "fast"), env.timeout(5, "slow")

        def proc():
            result = yield t1 | t2
            return (env.now, t1 in result, t2 in result)

        p = env.process(proc())
        env.run()
        assert p.value == (1.0, True, False)

    def test_empty_all_of_succeeds_immediately(self, env):
        cond = AllOf(env, [])
        assert cond.triggered

    def test_or_operator(self, env):
        t1, t2 = env.timeout(2), env.timeout(3)

        def proc():
            yield t1 | t2
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == 2.0

    def test_condition_failure_propagates(self, env):
        bad = env.event()

        def failer():
            yield env.timeout(1)
            bad.fail(RuntimeError("cond fail"))

        def waiter():
            try:
                yield AllOf(env, [bad, env.timeout(100)])
            except RuntimeError as exc:
                return str(exc)

        env.process(failer())
        p = env.process(waiter())
        env.run()
        assert p.value == "cond fail"

    def test_condition_value_mapping(self, env):
        t1 = env.timeout(1, "x")

        def proc():
            result = yield AllOf(env, [t1])
            assert len(result) == 1
            assert list(result) == [t1]
            assert result.todict() == {t1: "x"}
            return result[t1]

        p = env.process(proc())
        env.run()
        assert p.value == "x"

    def test_cross_environment_event_rejected(self, env):
        other = Environment()
        t = other.timeout(1)
        with pytest.raises(SimulationError):
            AllOf(env, [t])


class TestRunUntil:
    def test_run_until_event_returns_value(self, env):
        def proc():
            yield env.timeout(4)
            return "finished"

        p = env.process(proc())
        assert env.run(until=p) == "finished"
        assert env.now == 4.0

    def test_run_until_event_stops_early(self, env):
        env.timeout(100)  # later noise

        def proc():
            yield env.timeout(4)

        p = env.process(proc())
        env.run(until=p)
        assert env.now == 4.0

    def test_run_until_never_firing_event_raises(self, env):
        ev = env.event()  # nobody will trigger it
        env.timeout(1)
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=ev)

    def test_run_until_already_processed_event(self, env):
        ev = env.event().succeed("done")
        env.run()
        assert env.run(until=ev) == "done"

    def test_run_until_failed_event_raises(self, env):
        def proc():
            yield env.timeout(1)
            raise KeyError("oops")

        p = env.process(proc())
        with pytest.raises(KeyError):
            env.run(until=p)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            env = Environment()
            trace = []

            def worker(wid):
                for i in range(3):
                    yield env.timeout(1.5 * (wid + 1))
                    trace.append((env.now, wid, i))

            for w in range(4):
                env.process(worker(w))
            env.run()
            return trace

        assert build_and_run() == build_and_run()


class TestCoEnabledOrderingContract:
    """The documented co-enabled ordering contract (see the module docstring).

    Events are keyed ``(time, priority, seq)``; ``seq`` is assigned once
    per scheduling in program order with no gaps or reuse, and co-enabled
    events (equal ``(time, priority)``) resolve FIFO by ``seq``.  The
    controlled-scheduler hook with the default strategy must reproduce
    this order byte-for-byte.
    """

    def test_seq_is_monotonic_and_gapless(self, env):
        before = env._seq
        for _ in range(5):
            env.timeout(1.0)
        assert env._seq == before + 5

    def test_rescheduling_consumes_fresh_seq(self, env):
        ev = Event(env)
        ev.succeed()
        seq_after_first = env._seq
        ev2 = Event(env)
        ev2.succeed()
        assert env._seq == seq_after_first + 1

    @staticmethod
    def _tied_workers(env, trace):
        def worker(wid):
            # Deliberate exact ties: every worker fires at the same times.
            for i in range(4):
                yield env.timeout(2.0)
                trace.append((env.now, wid, i))

        return [env.process(worker(w)) for w in range(5)]

    @staticmethod
    def _trace_run(strategy_factory, program=None, drive=lambda env, procs: env.run()):
        """What ``program(env, trace)`` (default: the tied workers) does when
        ``drive(env, procs)`` runs it: the program's own entries, one
        ``("event", now, priority, seq, event class)`` row per event the
        kernel processed, and the kernel's final state."""

        class Env(Environment):
            pass

        Env.strategy_factory = strategy_factory
        env = Env()
        trace = []
        scheduled = set()

        def recording_push(queue, entry):
            # Every scheduling goes through the module's ``_heappush``; slip
            # in a first callback that notes when the event is processed.
            # The stepping loop pushes unchosen candidates back: once each.
            _when, priority, seq, event = entry
            if seq not in scheduled:
                scheduled.add(seq)
                row = (priority, seq, type(event).__name__)

                def note(_ev, row=row):
                    trace.append(("event", env.now) + row)

                if isinstance(event.callbacks, list):
                    event.callbacks.insert(0, note)
                else:  # a heap row's callbacks tuple
                    event.callbacks = (note,) + event.callbacks
            heapq.heappush(queue, entry)

        with mock.patch.object(core, "_heappush", recording_push):
            procs = (program or TestCoEnabledOrderingContract._tied_workers)(env, trace)
            drive(env, procs)
        trace.append(("end", env.events_processed, env.now, gc.isenabled()))
        return trace

    def test_default_strategy_is_byte_identical_to_fifo(self):
        from repro.sim.core import SchedulerStrategy

        baseline = self._trace_run(None)
        controlled = self._trace_run(SchedulerStrategy)
        assert controlled == baseline

    def test_default_strategy_choose_picks_queue_head(self):
        from repro.sim.core import SchedulerStrategy

        s = SchedulerStrategy()
        assert s.window == 0.0
        assert s.choose(0.0, [object(), object()]) == 0

    # -- one program, every way of running it ---------------------------------

    DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])
    STEPS = st.one_of(
        st.tuples(st.just("timeout"), DELAYS),
        st.tuples(st.just("event")),
        st.tuples(st.sampled_from(["any", "all"]), st.lists(DELAYS, max_size=3)),
        st.tuples(st.just("signal")),
        st.tuples(st.just("await"), DELAYS),
    )
    PROGRAMS = st.fixed_dictionaries(
        {
            "workers": st.lists(st.lists(STEPS, max_size=5), min_size=1, max_size=4),
            "kill": st.tuples(DELAYS, st.integers(0, 3)),
            "fail_after": DELAYS,
        }
    )

    @staticmethod
    def _program(spec, kept):
        """Workers over timeouts (zero-delay too), fresh events, any-of and
        all-of conditions and one shared signal; a killer that kills one of
        them; a guardian that catches its failing child.  Every event the program
        creates goes into ``kept`` with the value it must report."""

        def program(env, trace):
            signal = env.event()

            def keep(event, value):
                kept.append((event, value))
                return event

            def worker(wid, steps):
                for i, (kind, *args) in enumerate(steps):
                    tag = (wid, i)
                    if kind == "timeout":
                        got = yield keep(env.timeout(args[0], value=tag), tag)
                    elif kind == "event":
                        got = yield keep(env.event(), tag).succeed(tag)
                    elif kind in ("any", "all"):
                        subs = [
                            keep(env.timeout(delay, value=tag + (j,)), tag + (j,))
                            for j, delay in enumerate(args[0])
                        ]
                        done = yield (
                            Condition(env, Condition.any_done, subs)
                            if kind == "any"
                            else AllOf(env, subs)
                        )
                        got = [event.value for event in done]
                    elif kind == "signal":
                        if not signal.triggered:
                            keep(signal, tag).succeed(tag)
                        continue
                    else:  # await the signal, but not forever
                        done = yield signal | keep(env.timeout(args[0], value=tag), tag)
                        got = [event.value for event in done]
                    trace.append((env.now, wid, i, got))

            workers = [
                env.process(worker(wid, steps))
                for wid, steps in enumerate(spec["workers"])
            ]

            def killer(after, victim):
                yield keep(env.timeout(after, value="kill"), "kill")
                workers[victim % len(workers)].kill()
                trace.append((env.now, "killed", victim % len(workers)))

            def failing(after):
                yield keep(env.timeout(after, value="fail"), "fail")
                raise ValueError("boom")

            def guardian(after):
                try:
                    yield env.process(failing(after))
                except ValueError as exc:
                    trace.append((env.now, "caught", str(exc)))

            return workers + [
                env.process(killer(*spec["kill"])),
                env.process(guardian(spec["fail_after"])),
            ]

        return program

    @given(
        spec=PROGRAMS,
        cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
        awaited=st.integers(0, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_loop_processes_the_same_events(self, spec, cuts, awaited):
        """``run()`` takes the drain loop; ``run(until=...)`` and a run under
        a strategy take the stepping loop.  Same keys, same order, same end."""

        def run(strategy_factory=None, **how):
            return self._trace_run(strategy_factory, self._program(spec, []), **how)

        drained = run()
        _end, processed, end_time, collecting = drained[-1]
        assert processed == len([row for row in drained if row[0] == "event"])
        assert collecting

        def in_slices(env, procs):
            for cut in sorted(cuts):
                env.run(until=cut * end_time)
            env.run()

        def until_a_process(env, procs):
            env.run(until=procs[awaited % len(procs)])
            env.run()

        assert run(drive=in_slices) == drained
        assert run(drive=until_a_process) == drained
        assert run(SchedulerStrategy) == drained
        assert run(SchedulerStrategy, drive=in_slices) == drained

    @given(spec=PROGRAMS, cut=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_an_event_object_is_never_handed_out_twice(self, spec, cut):
        """What the free lists' reference-count test stood in for, as a
        property of both loops: every event the program created and kept is
        its own object and still reports the value it was triggered with."""

        def in_two_halves(env, procs):
            env.run(until=cut * 8.0)
            env.run()

        for how in ({}, {"drive": in_two_halves}):
            kept = []
            self._trace_run(None, self._program(spec, kept), **how)
            assert len({id(event) for event, _value in kept}) == len(kept)
            assert all(event.processed for event, _value in kept)
            assert [event.value for event, _value in kept] == [v for _e, v in kept]


class TestCollectorParkedDuringRun:
    """``run`` parks the cyclic collector and puts it back as it found it."""

    @pytest.fixture(autouse=True)
    def collector_restored(self):
        # The switch is process-wide: a failure here must not leave the
        # rest of the session without a collector.
        assert gc.isenabled()
        try:
            yield
        finally:
            gc.enable()

    @staticmethod
    def _ticker(env, seen, ticks=3):
        for _ in range(ticks):
            yield env.timeout(1.0)
            seen.append(gc.isenabled())

    def _drained(self, seen):
        env = Environment()
        env.process(self._ticker(env, seen))
        env.run()

    def _until_time(self, seen):
        env = Environment()
        env.process(self._ticker(env, seen, ticks=10))
        env.run(until=3.5)

    def _until_event(self, seen):
        env = Environment()
        assert env.run(until=env.process(self._ticker(env, seen))) is None

    def _until_processed_event(self, seen):
        env = Environment()
        proc = env.process(self._ticker(env, seen))
        env.run()
        env.run(until=proc)  # returns before any loop starts

    def _process_raises(self, seen):
        env = Environment()

        def boom():
            yield from self._ticker(env, seen)
            raise RuntimeError("boom")

        env.process(boom())
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def _awaited_event_never_fires(self, seen):
        env = Environment()
        env.process(self._ticker(env, seen))
        with pytest.raises(SimulationError, match="drained"):
            env.run(until=env.event())

    def _deadlock_out_of_run_spmd(self, seen):
        def main(ctx):
            seen.append(gc.isenabled())
            if ctx.rank == 0:
                yield from ctx.comm.recv(source=1)  # never sent

        with pytest.raises(DeadlockError):
            ClusterRuntime(2, params=myrinet2000()).run_spmd(main)

    def _under_a_scheduler_strategy(self, seen):
        class Env(Environment):
            strategy_factory = SchedulerStrategy

        env = Env()
        env.process(self._ticker(env, seen))
        env.run()

    WAYS_OUT = [
        "_drained",
        "_until_time",
        "_until_event",
        "_until_processed_event",
        "_process_raises",
        "_awaited_event_never_fires",
        "_deadlock_out_of_run_spmd",
        "_under_a_scheduler_strategy",
    ]

    @pytest.mark.parametrize("way", WAYS_OUT)
    def test_enabled_again_after_every_way_out(self, way):
        seen = []
        getattr(self, way)(seen)
        assert gc.isenabled()
        assert seen and not any(seen)  # parked inside every process body

    @pytest.mark.parametrize("way", WAYS_OUT)
    def test_a_caller_that_disabled_it_finds_it_disabled(self, way):
        gc.disable()
        seen = []
        getattr(self, way)(seen)
        assert not gc.isenabled()
        assert not any(seen)


def iter_of(*delays):
    """A process body that sleeps each of ``delays`` in turn."""
    for delay in delays:
        yield delay


class TestASleepIsAHeapRow:
    """``yield delay`` is ``yield env.timeout(delay)`` without the event: the
    same heap keys in the same order, the same resumed values, the same end
    — on the process's one wake row, which nothing else ever holds."""

    SPELLINGS = {
        "number": lambda env, delay: delay,
        "timeout": lambda env, delay: env.timeout(delay),
    }

    DELAYS = st.sampled_from([0, 0.0, 0.0, 0.5, 1, 1.0, 2.0])
    STEPS = st.one_of(
        st.tuples(st.just("sleep"), DELAYS),
        st.tuples(st.just("get")),
        st.tuples(st.just("put"), DELAYS),
        st.tuples(st.just("any"), st.lists(DELAYS, min_size=1, max_size=3)),
    )
    PROGRAMS = st.fixed_dictionaries(
        {
            "workers": st.lists(st.lists(STEPS, max_size=6), min_size=1, max_size=4),
            "kill_after": DELAYS,
            "nap": st.sampled_from([0.5, 1.0, 3.0]),
            "fail_after": DELAYS,
        }
    )

    @staticmethod
    def _program(spec, sleep):
        """Workers that sleep, feed and drain one :class:`Store` (a ``get``
        gives up after 4 µs) and wait on an any-of ``Condition``; a napper
        that only sleeps, killed mid-nap and joined; a guardian that catches its
        failing child.  ``sleep(env, delay)`` is what a process yields to
        sleep; every resumed value goes into the trace."""
        from repro.sim.primitives import Store

        def program(env, trace):
            store = Store(env)

            def worker(wid, steps):
                for i, (kind, *args) in enumerate(steps):
                    if kind == "sleep":
                        got = yield sleep(env, args[0])
                    elif kind == "get":
                        got = yield store.get() | env.timeout(4.0, value="gave up")
                        got = [event.value for event in got]
                    elif kind == "put":
                        got = yield sleep(env, args[0])
                        store.put((wid, i))
                    else:
                        done = yield Condition(
                            env,
                            Condition.any_done,
                            [env.timeout(d, value=(wid, i, j)) for j, d in enumerate(args[0])],
                        )
                        got = [event.value for event in done]
                    trace.append((env.now, wid, i, got))

            def napper():
                while True:
                    trace.append((env.now, "nap", (yield sleep(env, spec["nap"]))))

            def killer(victim):
                yield sleep(env, spec["kill_after"])
                victim.kill()
                trace.append((env.now, "killed", victim.is_alive))
                trace.append((env.now, "joined", (yield victim)))

            def failing():
                yield sleep(env, spec["fail_after"])
                raise ValueError("boom")

            def guardian():
                try:
                    yield env.process(failing())
                except ValueError as exc:
                    trace.append((env.now, "caught", str(exc)))

            procs = [
                env.process(worker(wid, steps))
                for wid, steps in enumerate(spec["workers"])
            ]
            procs.append(env.process(killer(env.process(napper()))))
            procs.append(env.process(guardian()))
            return procs

        return program

    @staticmethod
    def _run(program, strategy_factory=None, drive=lambda env: env.run()):
        """The program's own trace, every ``(time, priority, seq)`` the kernel
        popped, and the end state.  Checks as it goes that the heap never
        holds two entries naming one wake row."""

        class Env(Environment):
            pass

        Env.strategy_factory = strategy_factory
        env = Env()
        trace, popped = [], []

        def checking_push(queue, entry):
            if not isinstance(entry[3], Event):
                assert not [e for e in queue if e[3] is entry[3]]
            heapq.heappush(queue, entry)

        def recording_pop(queue):
            entry = heapq.heappop(queue)
            popped.append(entry[:3])
            return entry

        with mock.patch.object(core, "_heappush", checking_push), mock.patch.object(
            core, "_heappop", recording_pop
        ):
            program(env, trace)
            drive(env)
        return trace, popped, (env.events_processed, env.now)

    @given(spec=PROGRAMS, cuts=st.lists(st.floats(0.0, 8.0), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_both_spellings_are_one_event_stream(self, spec, cuts):
        def in_slices(env):
            for cut in sorted(cuts):
                env.run(until=cut)
            env.run()

        for how in (
            {},
            {"drive": in_slices},
            {"strategy_factory": SchedulerStrategy},
        ):
            number, timeout = (
                self._run(self._program(spec, sleep), **how)
                for sleep in self.SPELLINGS.values()
            )
            assert number == timeout
            trace, popped, (processed, _now) = number
            if "strategy_factory" not in how:
                # Without a strategy a pop is an event processed.
                assert len(popped) == processed
                assert len({seq for _when, _priority, seq in popped}) == processed
            assert (mock.ANY, "killed", False) in trace
            assert trace.count((mock.ANY, "joined", core.CRASHED)) == 1

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_a_killed_sleeper_is_never_resumed(self, env, spelling):
        sleep = self.SPELLINGS[spelling]
        woke = []

        def sleeper():
            try:
                yield sleep(env, 5.0)
                woke.append(env.now)
            finally:
                woke.append("closed")

        def killer(victim):
            yield sleep(env, 1.0)
            victim.kill()

        victim = env.process(sleeper())
        env.process(killer(victim))
        env.run(until=2.0)
        assert woke == ["closed"] and victim.value is core.CRASHED
        assert env._queue[0][0] == 5.0  # the orphan entry stays on the heap ...
        before = env.events_processed
        env.run()
        assert env.events_processed == before + 1  # ... and pops as a no-op
        assert woke == ["closed"] and env.now == 5.0

    def test_a_process_killed_before_it_starts_never_runs(self, env):
        ran = []

        def never():
            ran.append(True)
            yield 1.0

        env.process(never()).kill()
        env.run()
        assert not ran

    def test_an_int_is_a_delay(self, env):
        def proc():
            got = yield 3
            return (env.now, got)

        p = env.process(proc())
        env.run()
        assert p.value == (3.0, None)

    def test_a_sleeping_process_has_no_target(self, env):
        p = env.process(iter_of(2.0))
        env.run(until=1.0)
        assert p.is_alive and p.target is None

    @pytest.mark.parametrize(
        "bad, error, phrase",
        [
            (-1.0, ValueError, "negative delay -1.0"),
            (float("nan"), ValueError, "not a time: nan"),
            ("soon", SimulationError, "not an Event or a delay"),
            (None, SimulationError, "not an Event or a delay"),
            ([1.0], SimulationError, "not an Event or a delay"),
        ],
        ids=["negative", "nan", "str", "none", "list"],
    )
    def test_what_is_not_a_delay_raises_at_the_yield(self, env, bad, error, phrase):
        def culprit():
            yield 1.0
            yield bad

        env.process(culprit(), name="the-culprit")
        with pytest.raises(error, match=phrase) as excinfo:
            env.run()
        assert "the-culprit" in str(excinfo.value)
        assert excinfo.traceback[-1].name == "culprit"  # thrown in at the yield
        assert env.now == 1.0 and not env._queue  # nothing was scheduled

    @pytest.mark.parametrize("bad", [-0.5, float("nan")])
    def test_timeout_refuses_what_a_sleep_refuses(self, env, bad):
        with pytest.raises(ValueError):
            env.timeout(bad)
        assert not env._queue and env.now == 0.0

    def test_the_row_is_not_public(self):
        import repro.sim

        row = type(Environment().process(iter_of(1.0))._row)
        assert not issubclass(row, Event)
        for namespace in (repro.sim, core):
            assert row.__name__ not in namespace.__all__
            assert row not in [getattr(namespace, name) for name in namespace.__all__]


class TestATimerIsAHeapRow:
    """``env.call(delay, callbacks, a, b)`` is a callback ``env.timeout(delay)``
    without the event: the same heap keys in the same order, the same
    handlers run at the same instants, the same end — mixed with sleeps,
    process starts and kills."""

    @staticmethod
    def _as_row(env, delay, fire, a, b):
        env.call(delay, (lambda row: fire(row.a, row.b),), a, b)

    @staticmethod
    def _as_timeout(env, delay, fire, a, b):
        env.timeout(delay).callbacks.append(lambda _ev: fire(a, b))

    SPELLINGS = {"row": _as_row.__func__, "timeout": _as_timeout.__func__}

    DELAYS = st.sampled_from([0, 0.0, 0.5, 1.0, 1.0, 2.0])
    LEAF_STEPS = st.one_of(
        st.tuples(st.just("sleep"), DELAYS),
        st.tuples(st.just("call"), DELAYS, st.lists(DELAYS, max_size=2)),
        st.tuples(st.just("kill"), st.integers(0, 7)),
    )
    STEPS = st.one_of(
        LEAF_STEPS,
        st.tuples(st.just("spawn"), st.lists(LEAF_STEPS, max_size=4)),
        st.tuples(st.just("spawn-killed"), st.lists(LEAF_STEPS, max_size=2)),
    )
    PROGRAMS = st.lists(st.lists(STEPS, max_size=6), min_size=1, max_size=4)

    @staticmethod
    def _program(spec, schedule):
        """Workers that sleep, arm timers (whose handlers arm more), spawn
        workers (some killed before their first step) and kill each other;
        ``schedule(env, delay, fire, a, b)`` arms a timer running
        ``fire(a, b)``.  Every step and every firing goes into the trace."""

        def program(env, trace):
            procs = []

            def fire(tag, children):
                trace.append((env.now, "fired", tag))
                for j, delay in enumerate(children):
                    schedule(env, delay, fire, tag + (j,), ())

            def worker(wid, steps):
                for i, (kind, *args) in enumerate(steps):
                    if kind == "sleep":
                        yield args[0]
                    elif kind == "call":
                        schedule(env, args[0], fire, (wid, i), args[1])
                    elif kind == "kill":
                        victim = procs[args[0] % len(procs)]
                        if victim is not env.active_process:
                            victim.kill()
                    else:
                        child = env.process(worker(f"{wid}.{i}", args[0]))
                        procs.append(child)
                        if kind == "spawn-killed":
                            child.kill()
                    trace.append((env.now, wid, i, kind))

            procs.extend(env.process(worker(str(w), steps)) for w, steps in enumerate(spec))
            return procs

        return program

    @given(spec=PROGRAMS, cuts=st.lists(st.floats(0.0, 6.0), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_rows_and_timeouts_are_one_event_stream(self, spec, cuts):
        def in_slices(env):
            for cut in sorted(cuts):
                env.run(until=cut)
            env.run()

        for how in ({}, {"drive": in_slices}, {"strategy_factory": SchedulerStrategy}):
            row, timeout = (
                TestASleepIsAHeapRow._run(self._program(spec, schedule), **how)
                for schedule in self.SPELLINGS.values()
            )
            assert row == timeout

    def test_a_process_killed_before_its_first_step_pops_its_start_row(self, env):
        ran = []

        def never():
            ran.append(True)
            yield 1.0

        proc = env.process(never())
        [(when, priority, seq, row)] = env._queue
        assert (when, priority, seq, row) == (0.0, PRIORITY_URGENT, 0, proc._row)
        proc.kill()
        assert row.callbacks == ()
        env.run()
        # The start row (a no-op) and the process's own end.
        assert not ran and env.events_processed == 2

    def test_call_keys_like_a_timeout_and_hands_the_row_its_arguments(self, env):
        got = []
        env.timeout(1.0)
        row = env.call(2.5, (got.append,), "a", "b")
        assert env._queue[-1] == (2.5, core.PRIORITY_NORMAL, 1, row)
        assert (row.delay, row._mc_label) == (2.5, None)
        env.run()
        assert got == [row] and (row.a, row.b, row.callbacks) == ("a", "b", None)

    @pytest.mark.parametrize("bad", [-0.5, float("nan")])
    def test_call_refuses_what_a_timeout_refuses(self, env, bad):
        with pytest.raises(ValueError, match="negative delay|not a time"):
            env.call(bad, ())
        assert not env._queue and env._seq == 0

    def test_a_row_cannot_be_waited_on(self, env):
        row = env.call(1.0, ())

        def waiter():
            yield row

        env.process(waiter(), name="waiter")
        with pytest.raises(SimulationError, match="not an Event or a delay"):
            env.run()
        assert not isinstance(row, Event)
