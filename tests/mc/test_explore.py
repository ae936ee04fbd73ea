"""End-to-end tests for the DFS explorer and counterexample machinery."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.fuzz.runner import run_scenario
from repro.fuzz.scenario import scenario_from_json, scenario_to_json
from repro.mc import explore, get_target, load_counterexample, replay_counterexample
from repro.mc.strategy import RecordingStrategy, canonical_trace_hash, label_key
from repro.mc.explore import COUNTEREXAMPLE_FORMAT
from repro.mc.selftest import MC_MUTANT_PINS, _mutant, pin_scenario


#: Every target's pinned row, which CI's mc-smoke job checks against a whole
#: ``repro mc --json-out`` report (``scripts/check_mc_pins.py``).
PINS = json.loads((Path(__file__).parent / "pins.json").read_text())


def assert_pinned(result, name):
    """An exhausted target's row is exactly its pin: judged runs, runs whose
    trace was already judged, sleep-pruned runs and distinct end states."""
    assert result.exhausted
    assert {key: getattr(result, key) for key in PINS[name]} == PINS[name]


def test_pin_checker_names_every_moved_or_missing_row():
    spec = importlib.util.spec_from_file_location(
        "check_mc_pins", Path(__file__).parents[2] / "scripts" / "check_mc_pins.py"
    )
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    report = [{"target": name, **row} for name, row in sorted(PINS.items())]
    assert list(checker.mismatches(report, PINS)) == []
    report[0] = {**report[0], "pruned": report[0]["pruned"] + 1}
    missing = report.pop()["target"]
    assert [line.split(":")[0] for line in checker.mismatches(report, PINS)] == sorted(
        [report[0]["target"], missing]
    )


def _explore_target(name, **overrides):
    t = get_target(name)
    kwargs = dict(
        window=t.window, budget=t.budget, sim_cap_us=t.sim_cap_us, target=t.name
    )
    kwargs.update(overrides)
    return explore(t.scenario, **kwargs)


class TestExhaustion:
    def test_nic_barrier_exhausts_with_large_reduction(self):
        # Acceptance criterion: the crash-free NIC fence+barrier at N=3
        # is fully explored inside the budget, at >= 10x fewer schedules
        # than naive enumeration.
        result = _explore_target("nic-barrier")
        assert result.ok()
        assert result.exhausted
        assert result.reduction_factor() >= 10.0
        assert result.schedules_run > 100  # genuinely explored, not degenerate
        assert result.distinct_end_states == 1  # protocol is schedule-oblivious
        assert_pinned(result, "nic-barrier")

    def test_mcs_handoff_exhausts(self):
        result = _explore_target("mcs-handoff")
        assert result.ok()
        assert result.exhausted
        assert result.reduction_factor() >= 10.0
        assert result.distinct_end_states == 1
        assert_pinned(result, "mcs-handoff")

    def test_reliable_exhausts(self):
        result = _explore_target("reliable")
        assert result.ok()
        assert_pinned(result, "reliable")

    def test_ticket_handoff_is_degenerate_single_schedule(self):
        # The ticket lock is pure shared memory: no labeled deliveries,
        # one schedule.  This pins down that the controlled scheduler
        # does not perturb local locks.
        result = _explore_target("ticket-handoff")
        assert result.ok()
        assert result.exhausted
        assert result.schedules_run == 1
        assert result.max_depth == 0
        assert_pinned(result, "ticket-handoff")

    def test_exploration_is_deterministic(self):
        a = _explore_target("mcs-handoff")
        b = _explore_target("mcs-handoff")
        assert a.schedules_run == b.schedules_run
        assert a.pruned == b.pruned
        assert a.naive_bound == b.naive_bound

    def test_budget_bounds_runs(self):
        result = _explore_target("nic-barrier", budget=25)
        assert result.schedules_run == 25
        assert not result.exhausted


class TestCounterexample:
    @pytest.fixture(scope="class")
    def caught(self):
        # hasty-nic at N=2 is the fastest mutant catch.
        pin = next(p for p in MC_MUTANT_PINS if p.mutant == "hasty-nic")
        mutant = _mutant(pin.mutant)
        scenario = pin_scenario(pin)
        with mutant.patch():
            result = explore(
                scenario,
                window=pin.window,
                budget=pin.budget,
                sim_cap_us=pin.sim_cap_us,
            )
        return pin, mutant, result

    def test_counterexample_found_and_serialized(self, caught):
        pin, _mutant_, result = caught
        assert not result.ok()
        ce = result.counterexample
        assert ce["format"] == COUNTEREXAMPLE_FORMAT
        assert ce["violation_kinds"] == list(result.violation_kinds)
        assert result.violation_kinds  # non-empty kinds
        # The embedded scenario round-trips to the exact pinned scenario.
        assert scenario_from_json(json.dumps(ce["scenario"])) == pin_scenario(pin)

    def test_replay_roundtrip(self, caught, tmp_path):
        _pin, mutant, result = caught
        path = tmp_path / "ce.json"
        path.write_text(json.dumps(result.counterexample))
        data = load_counterexample(str(path))
        with mutant.patch():
            outcome = replay_counterexample(data)
        assert not outcome.ok()
        assert outcome.kinds() == result.violation_kinds

    def test_clean_replay_passes(self, caught):
        _pin, _mutant_, result = caught
        outcome = replay_counterexample(result.counterexample)
        assert outcome.ok()

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "not-a-counterexample"}))
        with pytest.raises(ValueError, match="not an RMCheck counterexample"):
            load_counterexample(str(path))


class TestLabelsInsideKeysAtTheBoundary:
    """The explorer carries a schedule as label tuples; a counterexample's
    JSON carries their ``label_key`` strings.  Either form forces the same
    run, and an abandoned run is not judged."""

    @pytest.fixture(scope="class")
    def free_run(self):
        t = get_target("nic-barrier")
        strategy = RecordingStrategy(window=t.window)
        run_scenario(t.scenario, strategy=strategy, sim_cap_us=t.sim_cap_us)
        assert len(strategy.chosen()) > 10
        return t, strategy

    def test_keys_and_labels_force_the_same_run(self, free_run):
        t, free = free_run
        # Take the *last* option at each of the first few choice points.
        taken = ()
        for _ in range(4):
            probe = RecordingStrategy(prefix=taken, window=t.window)
            run_scenario(t.scenario, strategy=probe, sim_cap_us=t.sim_cap_us)
            taken += (probe.decisions[len(taken)][0][-1],)
        assert taken != free.chosen()[:4]
        keys = json.loads(json.dumps([label_key(label) for label in taken]))
        runs = []
        for prefix in (taken, keys):
            strategy = RecordingStrategy(prefix=prefix, window=t.window)
            outcome = run_scenario(t.scenario, strategy=strategy, sim_cap_us=t.sim_cap_us)
            assert not strategy.diverged and strategy.chosen()[:4] == taken
            assert tuple(label_key(label) for label in strategy.chosen()[:4]) == tuple(keys)
            runs.append((strategy.trace, outcome.to_json(), outcome.end_state_hash))
        assert runs[0] == runs[1]

    def test_an_abandoned_run_is_not_judged(self, free_run):
        t, free = free_run
        unreachable = ("msg", ("srv", 99), (0, 0))
        strategy = RecordingStrategy(prefix=(unreachable,), window=t.window)
        outcome = run_scenario(t.scenario, strategy=strategy, sim_cap_us=t.sim_cap_us)
        assert strategy.diverged and strategy.abort
        assert outcome.kinds() == ("aborted",) and not outcome.ok()
        assert outcome.events_analyzed == 0 and outcome.end_state_hash == ""

    def test_trace_hash_is_the_digest_of_the_sorted_label_list(self, free_run):
        import hashlib

        _t, free = free_run
        t = list(free.trace)
        changed = True
        while changed:  # the definition: repr-compare adjacent independent labels
            changed = False
            for i in range(len(t) - 1):
                a, b = t[i], t[i + 1]
                if a[1] != b[1] and repr(b) < repr(a):
                    t[i], t[i + 1] = b, a
                    changed = True
        expected = hashlib.sha256(repr(t).encode("utf-8")).hexdigest()
        assert canonical_trace_hash(free.trace) == expected


class TestResultReporting:
    def test_render_mentions_reduction(self):
        result = _explore_target("mcs-handoff")
        text = result.render()
        assert "reduction" in text
        assert "exhausted" in text

    def test_to_json_roundtrips(self):
        result = _explore_target("mcs-handoff")
        data = json.loads(result.to_json())
        assert data["ok"] is True
        assert data["schedules_run"] == result.schedules_run
        assert data["reduction_factor"] >= 10.0
