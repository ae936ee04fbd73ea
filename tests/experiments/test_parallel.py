"""Tests for the parallel sweep runner and the scalebench experiment."""

import pytest

from repro.experiments.fig7_sync import Fig7Config, run_fig7
from repro.experiments.nicbench import NicBenchConfig, run_nicbench
from repro.experiments.parallel import default_jobs, run_cells
from repro.experiments.scalebench import (
    SCALE_VARIANTS,
    ScaleBenchConfig,
    run_scalebench,
)
from repro.experiments.sweep import sweep


def _square(cell):
    return cell * cell


def _metrics(params):
    return {"sum": params.api_call_us + params.o_send_us}


class TestRunCells:
    def test_serial_matches_comprehension(self):
        cells = list(range(10))
        assert run_cells(_square, cells, jobs=1) == [c * c for c in cells]

    def test_parallel_preserves_order_and_values(self):
        cells = list(range(17))
        assert run_cells(_square, cells, jobs=3) == [c * c for c in cells]

    def test_jobs_none_and_zero_mean_per_core(self):
        cells = [1, 2, 3]
        expected = [1, 4, 9]
        assert run_cells(_square, cells, jobs=None) == expected
        assert run_cells(_square, cells, jobs=0) == expected

    def test_empty_and_single_cell(self):
        assert run_cells(_square, [], jobs=4) == []
        assert run_cells(_square, [7], jobs=4) == [49]

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestParallelExperiments:
    """jobs > 1 must not change a single simulated value."""

    def test_fig7_parallel_matches_serial(self):
        cfg = Fig7Config(nprocs_list=(2, 4), iterations=3)
        serial = run_fig7(cfg, jobs=1)
        parallel = run_fig7(cfg, jobs=2)
        assert serial.render() == parallel.render()

    def test_nicbench_parallel_matches_serial(self):
        cfg = NicBenchConfig(nprocs_list=(2, 4), iterations=3)
        serial = run_nicbench(cfg, jobs=1)
        parallel = run_nicbench(cfg, jobs=2)
        assert serial.render() == parallel.render()

    def test_sweep_parallel_matches_serial(self):
        grid = {"api_call_us": [0.5, 1.0], "o_send_us": [0.2, 0.4]}
        serial = sweep(grid, _metrics, jobs=1)
        parallel = sweep(grid, _metrics, jobs=2)
        assert serial.points == parallel.points
        assert serial.render() == parallel.render()


class TestScaleBench:
    def test_small_run_shape_and_determinism(self):
        cfg = ScaleBenchConfig(nprocs_list=(8, 16), iterations=2)
        first = run_scalebench(cfg)
        second = run_scalebench(cfg)
        assert first.nprocs_list() == [8, 16]
        for variant in SCALE_VARIANTS:
            for nprocs in (8, 16):
                a = first.cells[variant][nprocs]
                b = second.cells[variant][nprocs]
                # Simulated time and event count are deterministic;
                # wall-clock is not.
                assert a.sync_us == b.sync_us
                assert a.events == b.events
                assert a.sync_us > 0
                assert a.events > 0

    def test_sync_time_grows_with_nprocs(self):
        cfg = ScaleBenchConfig(nprocs_list=(8, 32), iterations=2)
        result = run_scalebench(cfg)
        for variant in SCALE_VARIANTS:
            assert (
                result.cells[variant][32].sync_us
                > result.cells[variant][8].sync_us
            )

    def test_render_mentions_all_variants(self):
        cfg = ScaleBenchConfig(nprocs_list=(8,), iterations=1)
        text = run_scalebench(cfg).render()
        for variant in SCALE_VARIANTS:
            assert variant in text

    def test_parallel_matches_serial_simulated_values(self):
        cfg = ScaleBenchConfig(nprocs_list=(8, 16), iterations=2)
        serial = run_scalebench(cfg, jobs=1)
        parallel = run_scalebench(cfg, jobs=2)
        for variant in SCALE_VARIANTS:
            for nprocs in (8, 16):
                assert (
                    serial.cells[variant][nprocs].sync_us
                    == parallel.cells[variant][nprocs].sync_us
                )
                assert (
                    serial.cells[variant][nprocs].events
                    == parallel.cells[variant][nprocs].events
                )
