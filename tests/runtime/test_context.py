"""Tests for the per-process execution context."""

import pytest

from repro.runtime.memory import GlobalAddress
from repro.sim.trace import Stopwatch


class TestProcessContext:
    def test_compute_is_pure_delay(self, make_cluster):
        def main(ctx):
            t0 = ctx.now
            yield ctx.compute(42.5)
            return ctx.now - t0

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main) == [42.5, 42.5]
        assert rt.fabric.stats.messages == 0

    def test_compute_hands_back_the_delay_it_checked(self, make_cluster):
        ctx = make_cluster(nprocs=1).context(0)
        assert ctx.compute(3) == 3 and ctx.compute(0.0) == 0.0
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="not a duration"):
                ctx.compute(bad)

    def test_now_tracks_environment(self, make_cluster):
        rt = make_cluster(nprocs=1)
        ctx = rt.context(0)
        assert ctx.now == rt.env.now == 0.0

    def test_ga_builds_global_address(self, make_cluster):
        rt = make_cluster(nprocs=2)
        assert rt.context(1).ga(0, 9) == GlobalAddress(0, 9)

    def test_stopwatch_factory_names_by_rank(self, make_cluster):
        rt = make_cluster(nprocs=2)
        sw = rt.context(1).stopwatch("phase")
        assert isinstance(sw, Stopwatch)
        assert "r1" in sw.name and "phase" in sw.name

    def test_context_exposes_node_resources(self, make_cluster):
        rt = make_cluster(nprocs=4, procs_per_node=2)
        ctx = rt.context(2)
        assert ctx.node == 1
        assert ctx.server is rt.servers[1]
        assert ctx.region is rt.regions[2]
        assert ctx.regions is rt.regions
        assert ctx.comm.rank == 2
        assert ctx.armci.rank == 2

    def test_repr(self, make_cluster):
        rt = make_cluster(nprocs=4, procs_per_node=2)
        text = repr(rt.context(3))
        assert "rank=3/4" in text and "node=1" in text
