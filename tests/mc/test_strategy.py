"""Unit tests for the exploration strategy and the dependence relation."""

from __future__ import annotations

from repro.mc.strategy import (
    RecordingStrategy,
    canonical_trace_hash,
    independent,
    label_key,
)
from repro.sim.core import Environment, SchedulerStrategy


MSG_A0 = ("msg", ("srv", 0), (1, 0))
MSG_A1 = ("msg", ("srv", 0), (2, 0))
MSG_B0 = ("msg", ("srv", 1), (1, 1))
ACK_C = ("ack", ("ack-ch", (0, 1)), (3, 1, 0))


class TestIndependence:
    def test_different_destinations_commute(self):
        assert independent(MSG_A0, MSG_B0)
        assert independent(MSG_A0, ACK_C)

    def test_same_destination_conflicts(self):
        assert not independent(MSG_A0, MSG_A1)

    def test_acks_conflict_per_channel(self):
        other_ack = ("ack", ("ack-ch", (0, 1)), (4, 1, 0))
        assert not independent(ACK_C, other_ack)

    def test_symmetry(self):
        for a in (MSG_A0, MSG_B0, ACK_C):
            for b in (MSG_A0, MSG_B0, ACK_C):
                assert independent(a, b) == independent(b, a)


class TestCanonicalTraceHash:
    def test_independent_swap_is_equivalent(self):
        assert canonical_trace_hash([MSG_A0, MSG_B0]) == canonical_trace_hash(
            [MSG_B0, MSG_A0]
        )

    def test_dependent_swap_is_distinct(self):
        assert canonical_trace_hash([MSG_A0, MSG_A1]) != canonical_trace_hash(
            [MSG_A1, MSG_A0]
        )

    def test_distant_independent_reorder_is_equivalent(self):
        # The bubble pass must commute across a run of independents.
        t1 = [MSG_A0, ACK_C, MSG_B0]
        t2 = [MSG_B0, MSG_A0, ACK_C]
        assert canonical_trace_hash(t1) == canonical_trace_hash(t2)


class _Entry:
    """Shape-compatible stand-in for a heap entry (time, prio, seq, event)."""

    class _Ev:
        def __init__(self, label):
            self._mc_label = label

    def __new__(cls, label):
        return (0.0, 1, 0, cls._Ev(label))


class TestRecordingStrategy:
    def test_unlabeled_head_is_not_a_choice_point(self):
        s = RecordingStrategy()
        assert s.choose(0.0, [_Entry(None), _Entry(MSG_A0)]) == 0
        assert s.decisions == []

    def test_free_choice_records_options(self):
        s = RecordingStrategy()
        idx = s.choose(0.0, [_Entry(MSG_A0), _Entry(MSG_B0)])
        assert idx == 0
        [(options, chosen, sleep)] = s.decisions
        assert options == [MSG_A0, MSG_B0]
        assert chosen == MSG_A0
        assert sleep == ()

    def test_prefix_forces_the_matching_candidate(self):
        s = RecordingStrategy(prefix=(label_key(MSG_B0),))
        idx = s.choose(0.0, [_Entry(MSG_A0), _Entry(MSG_B0)])
        assert idx == 1
        assert s.chosen() == (MSG_B0,)

    def test_unmatchable_prefix_diverges(self):
        s = RecordingStrategy(prefix=(label_key(ACK_C),))
        s.choose(0.0, [_Entry(MSG_A0), _Entry(MSG_B0)])
        assert s.diverged and s.abort

    def test_sleeping_choice_skipped(self):
        s = RecordingStrategy(sleep=(MSG_A0,))
        idx = s.choose(0.0, [_Entry(MSG_A0), _Entry(MSG_B0)])
        assert idx == 1

    def test_all_sleeping_aborts_redundant(self):
        s = RecordingStrategy(sleep=(MSG_A0, MSG_B0))
        s.choose(0.0, [_Entry(MSG_A0), _Entry(MSG_B0)])
        assert s.redundant and s.abort

    def test_sole_sleeping_candidate_aborts_redundant(self):
        # The classical sleep-set prune: executing a sleeping transition
        # outside a choice point duplicates a sibling's coverage.
        s = RecordingStrategy(sleep=(MSG_A0,))
        s.choose(0.0, [_Entry(MSG_A0)])
        assert s.redundant and s.abort

    def test_executed_filters_dependent_sleepers(self):
        s = RecordingStrategy(sleep=(MSG_A0, MSG_B0))
        s.executed(MSG_A1)  # same dst as MSG_A0 -> wakes it
        assert s.sleep == {MSG_B0}

    def test_prefix_replay_leaves_sleep_untouched(self):
        # Mid-replay (depth < len(prefix)) the stored sleep set was
        # computed at the branch state and must not be re-filtered.
        s = RecordingStrategy(
            prefix=(label_key(MSG_A1), label_key(MSG_B0)), sleep=(MSG_A0,)
        )
        s.choose(0.0, [_Entry(MSG_A1), _Entry(MSG_B0)])
        s.executed(MSG_A1)  # dependent on the sleeper, but still replaying
        assert s.sleep == {MSG_A0}

    def test_branching_product(self):
        s = RecordingStrategy()
        s.choose(0.0, [_Entry(MSG_A0), _Entry(MSG_B0)])
        s.choose(0.0, [_Entry(MSG_A1), _Entry(MSG_B0), _Entry(ACK_C)])
        assert s.branching_product() == 6


class TestLabelledRowsInTheWindow:
    """A labelled ``Call`` row is co-enabled in the commutation window
    exactly as a labelled ``Timeout`` was: same candidates, same keys, same
    clamped execution — the transport's deliveries became rows without
    RMCheck seeing a different choice space."""

    class _Picky(SchedulerStrategy):
        """Window 3 µs; picks the last candidate; records what it saw."""

        window = 3.0

        def __init__(self):
            self.seen = []

        def choose(self, now, candidates):
            self.seen.append(
                (now, [entry[:3] + (entry[3]._mc_label,) for entry in candidates])
            )
            return len(candidates) - 1

    @staticmethod
    def _row(env, delay, label, fire):
        env.call(delay, (lambda row: fire(row.a),), label)._mc_label = label

    @staticmethod
    def _timeout(env, delay, label, fire):
        timer = env.timeout(delay)
        timer._mc_label = label
        timer.callbacks.append(lambda _ev: fire(label))

    def _explore(self, arm):
        class Env(Environment):
            strategy_factory = self._Picky

        env = Env()
        fired = []

        def fire(label):
            fired.append((env.now, label))

        # Labelled deliveries 0.5-1.5 µs apart, an unlabelled timer inside
        # the window, and a process sleeping through it.
        for i, delay in enumerate((1.0, 1.5, 2.5, 3.0, 5.5, 9.0)):
            arm(env, delay, ("msg", ("srv", i % 2), (i, 0)), fire)
        env.timeout(2.0).callbacks.append(lambda _ev: fired.append((env.now, "plain")))

        def sleeper():
            yield 1.25
            fired.append((env.now, "woke"))

        env.process(sleeper())
        env.run()
        return fired, env._mc_strategy.seen, env.events_processed

    def test_same_candidates_same_picks(self):
        rows = self._explore(self._row)
        timeouts = self._explore(self._timeout)
        assert rows == timeouts
        fired, seen, _processed = rows
        assert any(len(candidates) > 2 for _now, candidates in seen)
        assert ("msg", ("srv", 1), (5, 0)) in [label for _at, label in fired]
