"""Sanity tests for the named model-checking targets."""

from __future__ import annotations

import pytest

from repro.fuzz.scenario import scenario_from_json, scenario_to_json
from repro.mc.targets import TARGETS, get_target


def test_expected_targets_present():
    assert set(TARGETS) == {
        "nic-barrier",
        "nic-barrier-crash",
        "ticket-handoff",
        "mcs-handoff",
        "reliable",
        "partition-heal",
        "twolevel-barrier",
        "lock-recovery-remote",
        "lock-recovery-remote-waiter",
        "lock-recovery-mcs",
        "lock-recovery-mcs-waiter",
    }


def test_get_target_unknown_lists_known():
    with pytest.raises(KeyError, match="unknown mc target"):
        get_target("no-such-target")


def test_scenarios_are_small_and_serializable():
    for target in TARGETS.values():
        assert 2 <= target.scenario.nprocs <= 4
        assert target.budget > 0
        assert target.sim_cap_us > 0
        roundtrip = scenario_from_json(scenario_to_json(target.scenario))
        assert roundtrip == target.scenario


def test_crash_free_targets_expect_exhaustion():
    assert get_target("nic-barrier").expect_exhaustive
    assert get_target("mcs-handoff").expect_exhaustive
    assert not get_target("nic-barrier-crash").expect_exhaustive
    assert not get_target("reliable").expect_exhaustive
    assert not get_target("partition-heal").expect_exhaustive
    # Four ranks over two fabric levels: explicitly budget-bounded.
    assert not get_target("twolevel-barrier").expect_exhaustive
