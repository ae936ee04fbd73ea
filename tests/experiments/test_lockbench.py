"""Shape tests for the lock benchmark (Figures 8, 9, 10)."""

import pytest

from repro.experiments.lockbench import (
    LockBenchConfig,
    comparison_from_series,
    run_lock_point,
    run_lock_series,
)

FAST = LockBenchConfig(nprocs_list=(1, 4, 8), iterations=120, warmup=8)


@pytest.fixture(scope="module")
def series():
    return run_lock_series(FAST)


class TestFig8Shape:
    def test_single_process_current_wins(self, series):
        """Paper: at one process the blocking CAS makes the new lock slower."""
        h, m = series["hybrid"][1], series["mcs"][1]
        assert m.roundtrip_us > h.roundtrip_us

    def test_contended_new_wins(self, series):
        for n in (4, 8):
            h, m = series["hybrid"][n], series["mcs"][n]
            assert m.roundtrip_us < h.roundtrip_us, f"MCS must win at {n}"

    def test_factor_in_paper_ballpark_at_8(self, series):
        """Paper: up to 1.25x at 8 nodes; accept [1.05, 1.6]."""
        factor = series["hybrid"][8].roundtrip_us / series["mcs"][8].roundtrip_us
        assert 1.05 <= factor <= 1.6


class TestFig9Shape:
    def test_acquire_new_wins_at_contention(self, series):
        for n in (4, 8):
            assert series["mcs"][n].acquire_us < series["hybrid"][n].acquire_us

    def test_acquire_new_wins_single_process(self, series):
        """Paper Figure 9: 'the new implementation always outperforms'."""
        assert series["mcs"][1].acquire_us < series["hybrid"][1].acquire_us


class TestDualSmp:
    """16 processes at one and at two per node (the testbed's dual SMPs)."""

    @pytest.fixture(scope="class")
    def by_ppn(self):
        out = {}
        for ppn in (1, 2):
            cfg = LockBenchConfig(iterations=60, procs_per_node=ppn)
            out[ppn] = (
                run_lock_point("hybrid", 16, cfg).roundtrip_us,
                run_lock_point("mcs", 16, cfg).roundtrip_us,
            )
        return out

    def test_mcs_wins_in_the_paper_range_at_both_placements(self, by_ppn):
        for hybrid, mcs in by_ppn.values():
            assert 1.1 < hybrid / mcs < 1.5

    def test_placement_moves_each_lock_by_a_few_percent(self, by_ppn):
        """One lock, a 16-deep rotation: 1 handoff in 15 becomes same-node."""
        for column in (0, 1):
            assert abs(by_ppn[2][column] - by_ppn[1][column]) < 0.07 * by_ppn[1][column]


class TestFig10Shape:
    def test_release_current_wins(self, series):
        """Paper Figure 10: new release is more expensive (the CAS)."""
        for n in (1, 4, 8):
            assert series["mcs"][n].release_us > series["hybrid"][n].release_us

    def test_new_release_decreases_with_contention(self, series):
        """More contention -> queue rarely empty -> cheaper handoff path."""
        assert series["mcs"][8].release_us < series["mcs"][1].release_us

    def test_current_release_flat_and_cheap(self, series):
        releases = [series["hybrid"][n].release_us for n in (1, 4, 8)]
        assert max(releases) < 5.0  # fire-and-forget


class TestMechanics:
    def test_single_process_averages_local_and_remote(self):
        cfg = LockBenchConfig(iterations=60, warmup=4)
        point = run_lock_point("mcs", 1, cfg)
        # The remote case has round trips; the local case is microseconds.
        # The average must sit strictly between them.
        assert 2.0 < point.roundtrip_us < 120.0

    def test_roundtrip_is_sum(self, series):
        point = series["hybrid"][4]
        assert point.roundtrip_us == pytest.approx(
            point.acquire_us + point.release_us
        )

    def test_comparison_projection(self, series):
        comparison = comparison_from_series(series, "acquire", "t")
        assert comparison.get("current", 4) == series["hybrid"][4].acquire_us
        assert comparison.get("new", 4) == series["mcs"][4].acquire_us

    def test_unknown_metric_rejected(self, series):
        with pytest.raises(KeyError):
            comparison_from_series(series, "latency", "t")

    def test_determinism(self):
        cfg = LockBenchConfig(nprocs_list=(2,), iterations=40, warmup=4)
        a = run_lock_point("hybrid", 2, cfg)
        b = run_lock_point("hybrid", 2, cfg)
        assert a.acquire_us == b.acquire_us
        assert a.release_us == b.release_us
