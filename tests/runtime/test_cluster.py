"""Unit tests for the cluster runtime and process contexts."""

import gc
import tracemalloc

import pytest

from repro.experiments.scalebench import ScaleBenchConfig, scale_workload
from repro.runtime.cluster import ClusterRuntime, DeadlockError
from repro.runtime.memory import GlobalAddress


class TestConstruction:
    def test_wiring(self, make_cluster):
        rt = make_cluster(nprocs=4, procs_per_node=2)
        assert rt.nprocs == 4
        assert rt.topology.nnodes == 2
        assert set(rt.regions) == {0, 1, 2, 3}
        assert set(rt.servers) == {0, 1}
        assert set(rt.comms) == {0, 1, 2, 3}

    def test_context_caching(self, make_cluster):
        rt = make_cluster(nprocs=2)
        assert rt.context(0) is rt.context(0)
        assert rt.context(0) is not rt.context(1)

    def test_context_fields(self, make_cluster):
        rt = make_cluster(nprocs=4, procs_per_node=2)
        ctx = rt.context(3)
        assert ctx.rank == 3
        assert ctx.nprocs == 4
        assert ctx.node == 1
        assert ctx.region is rt.regions[3]
        assert ctx.server is rt.servers[1]
        assert ctx.armci is rt.armcis[3]
        assert ctx.ga(1, 5) == GlobalAddress(1, 5)

    def test_explicit_placement(self, make_cluster):
        rt = make_cluster(nprocs=4, placement=[0, 1, 1, 0])
        assert rt.topology.node_of(3) == 0

    def test_invalid_fence_mode(self, make_cluster):
        with pytest.raises(ValueError, match="fence_mode"):
            make_cluster(nprocs=2, fence_mode="magic")


class TestPerRankStateIsConstantInN:
    """What one more rank costs the host does not grow with the cluster: no
    rank is born with an N-slot anything (the paper's ``op_init[]`` stores
    the slots a rank touched)."""

    @staticmethod
    def _bytes_per_rank(make_cluster, nprocs):
        gc.collect()
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            rt = make_cluster(nprocs=nprocs)
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rt.nprocs == nprocs
        return (after - before) / nprocs

    def test_construction_bytes_per_rank(self, make_cluster):
        self._bytes_per_rank(make_cluster, 16)  # first-use caches, once
        small = self._bytes_per_rank(make_cluster, 256)
        large = self._bytes_per_rank(make_cluster, 512)
        assert abs(large - small) / small < 0.10, (small, large)

    def test_a_ring_put_workload_stores_one_count_per_rank(self, make_cluster):
        rt = make_cluster(nprocs=256)
        rt.run_spmd(scale_workload, "new", ScaleBenchConfig(iterations=3))
        stored = [len(armci.op_init.items()) for armci in rt.armcis.values()]
        assert stored == [1] * 256
        assert all(list(a.op_init).count(3) == 1 for a in rt.armcis.values())


class TestRunSpmd:
    def test_results_ordered_by_rank(self, make_cluster):
        def main(ctx):
            yield ctx.compute(1.0 * (ctx.nprocs - ctx.rank))
            return ctx.rank * 10

        rt = make_cluster(nprocs=4)
        assert rt.run_spmd(main) == [0, 10, 20, 30]

    def test_args_passed_through(self, make_cluster):
        def main(ctx, a, b):
            yield ctx.compute(0)
            return a + b + ctx.rank

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main, 100, 20) == [120, 121]

    def test_exception_propagates(self, make_cluster):
        def main(ctx):
            yield ctx.compute(1)
            if ctx.rank == 1:
                raise RuntimeError("rank 1 explodes")
            yield from ctx.armci.barrier()

        rt = make_cluster(nprocs=2)
        with pytest.raises(RuntimeError):
            rt.run_spmd(main)

    def test_deadlock_detected(self, make_cluster):
        def main(ctx):
            if ctx.rank == 0:
                # Waits for a message nobody sends.
                yield from ctx.comm.recv(source=1, tag=42)
            else:
                yield ctx.compute(1)

        rt = make_cluster(nprocs=2)
        with pytest.raises(DeadlockError, match="never finished"):
            rt.run_spmd(main)

    def test_spawn_subset_of_ranks(self, make_cluster):
        def main(ctx):
            yield ctx.compute(1)
            return ctx.rank

        rt = make_cluster(nprocs=4)
        procs = rt.spawn(main, ranks=[1, 3])
        rt.run()
        assert set(procs) == {1, 3}
        assert procs[1].value == 1 and procs[3].value == 3

    def test_compute_advances_only_virtual_time(self, make_cluster):
        def main(ctx):
            t0 = ctx.now
            yield ctx.compute(123.0)
            return ctx.now - t0

        rt = make_cluster(nprocs=1)
        assert rt.run_spmd(main) == [123.0]


class TestEndToEnd:
    def test_put_get_between_all_pairs(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(ctx.nprocs, initial=-1)
            for peer in range(ctx.nprocs):
                if peer != ctx.rank:
                    yield from ctx.armci.put(
                        GlobalAddress(peer, base + ctx.rank), [ctx.rank]
                    )
            yield from ctx.armci.barrier()
            values = ctx.region.read_many(base, ctx.nprocs)
            return values

        rt = make_cluster(nprocs=4)
        for rank, values in enumerate(rt.run_spmd(main)):
            expected = [r if r != rank else -1 for r in range(4)]
            assert values == expected

    def test_smp_local_puts_bypass_network(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            peer = ctx.rank ^ 1  # same node under ppn=2
            yield from ctx.armci.put(GlobalAddress(peer, base), [ctx.rank])
            yield ctx.compute(1)
            return ctx.region.read(base)

        rt = make_cluster(nprocs=2, procs_per_node=2)
        assert rt.run_spmd(main) == [1, 0]
        assert rt.fabric.stats.inter_node == 0
