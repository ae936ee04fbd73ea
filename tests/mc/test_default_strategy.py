"""Default-strategy byte-identity: the controlled scheduler must change nothing.

Installing the base :class:`~repro.sim.core.SchedulerStrategy` (FIFO
choice, zero window) routes every simulation step through the kernel's
stepping loop, candidate collection engaged, instead of the drain loop.
The contract is that this
is *observationally identical*: every experiment family must render the
exact same results either way, or the model checker would be exploring a
different system than the one the benchmarks measure.
"""

from __future__ import annotations

import pytest

from repro.sim.core import Environment, SchedulerStrategy


@pytest.fixture
def controlled():
    """Route every Environment in the block through the stepping loop."""
    assert Environment.strategy_factory is None
    Environment.strategy_factory = SchedulerStrategy
    try:
        yield
    finally:
        Environment.strategy_factory = None


def _fig7():
    from repro.experiments import Fig7Config, run_fig7

    return run_fig7(Fig7Config(nprocs_list=(2, 4), iterations=3)).render()


def _locks():
    from repro.experiments import LockBenchConfig, run_lock_series
    from repro.experiments.lockbench import comparison_from_series

    series = run_lock_series(LockBenchConfig(nprocs_list=(2, 4), iterations=5))
    return comparison_from_series(series, "roundtrip", "locks").render()


def _faults():
    from repro.experiments.faultbench import FaultBenchConfig, run_faultbench

    cfg = FaultBenchConfig(nprocs=4, drop_rates=(0.0, 0.05), epochs=2)
    return run_faultbench(cfg).render()


def _chaos():
    from repro.experiments.chaosbench import ChaosBenchConfig, run_chaosbench

    cfg = ChaosBenchConfig(
        nprocs=4,
        barrier_kills=((3, 60.0),),
        lock_kills=((2, 900.0),),
        lock_iters=2,
    )
    return run_chaosbench(cfg).render()


@pytest.mark.parametrize(
    "runner", [_fig7, _locks, _faults, _chaos], ids=["fig7", "locks", "faults", "chaos"]
)
def test_default_strategy_results_byte_identical(runner, controlled):
    controlled_out = runner()
    Environment.strategy_factory = None
    plain_out = runner()
    assert controlled_out == plain_out
