"""The drop-rate sweep: the reliable layer repairs every loss, at a cost.

The paper leans on GM's reliable in-order delivery (§3.1.1).  Under seeded
drops and duplicates every point must reach the fault-free run's memory
state, and the repair work and epoch time must grow with the loss rate.
"""

import pytest

from repro.experiments.faultbench import FaultBenchConfig, run_faultbench


@pytest.fixture(scope="module")
def result():
    cfg = FaultBenchConfig(
        nprocs=8, drop_rates=(0.0, 0.02, 0.05, 0.1), epochs=4, fault_seed=20030422
    )
    return run_faultbench(cfg)


@pytest.fixture(scope="module")
def by_rate(result):
    return {p.drop_rate: p for p in result.points}


def test_every_drop_rate_reaches_the_fault_free_state(result):
    assert result.all_ok(), result.render()


def test_losses_happen_and_are_repaired(by_rate):
    point = by_rate[0.05]
    assert point.frames_dropped > 0
    assert point.retransmits > 0
    assert point.dup_suppressed > 0


def test_fault_free_point_engages_no_repair(by_rate):
    assert by_rate[0.0].retransmits == 0 and by_rate[0.0].acks == 0


def test_recovery_costs_time_monotonically(by_rate):
    assert by_rate[0.1].epoch_us > by_rate[0.02].epoch_us > by_rate[0.0].epoch_us
