"""Cross-module integration tests: whole-cluster programs combining
one-sided data movement, locks, collectives, and both sync algorithms."""

import numpy as np
import pytest

from repro.ga import GlobalArray, dot
from repro.locks import make_lock
from repro.mp import collectives
from repro.runtime.memory import GlobalAddress


class TestMixedWorkloads:
    @pytest.mark.parametrize("sync_mode", ["current", "new"])
    @pytest.mark.parametrize("lock_kind", ["hybrid", "mcs"])
    def test_locked_updates_plus_ga_assembly(self, make_cluster, sync_mode, lock_kind):
        """A program mixing a critical-section counter with GA assembly must
        produce identical results under old and new primitives."""

        def main(ctx):
            ga = GlobalArray(ctx, "mix", (16, 16))
            lock = make_lock(lock_kind, ctx, home_rank=0, name="mix")
            counter = ctx.regions[0].alloc_named("mix_counter", 1, 0)
            for _round in range(3):
                blk = ga.dist.block((ctx.rank + 1) % ctx.nprocs)
                yield from ga.put(
                    (blk.row0, blk.row1, blk.col0, blk.col1),
                    np.full((blk.nrows, blk.ncols), float(ctx.rank + 1)),
                )
                yield from lock.acquire()
                v = yield from ctx.armci.get(ctx.ga(0, counter))
                yield from ctx.armci.put(ctx.ga(0, counter), [v[0] + 1])
                yield from ctx.armci.fence(0)
                yield from lock.release()
                yield from ga.sync(sync_mode)
            total = yield from dot(ga, ga)
            count = yield from ctx.armci.get(ctx.ga(0, counter))
            return total, count[0]

        rt = make_cluster(nprocs=4)
        results = rt.run_spmd(main)
        totals = {r[0] for r in results}
        assert len(totals) == 1  # all ranks agree on the final dot
        assert results[0][1] == 12  # 4 ranks x 3 rounds

    def test_results_identical_across_sync_modes(self, make_cluster):
        """The full mixed program is deterministic per mode, and both modes
        end with byte-identical global state."""

        def main(ctx, mode):
            ga = GlobalArray(ctx, "det", (12, 12))
            yield from ga.put(
                ga.my_block_section(),
                np.full(ga.local_block().shape, float(ctx.nprocs)),
            )
            yield from ga.sync(mode)
            for peer in range(ctx.nprocs):
                if peer != ctx.rank:
                    # Disjoint target cells per writer (same-cell writes
                    # would be a last-writer-wins race in any RMA system).
                    blk = ga.dist.block(peer)
                    col = blk.col0 + (ctx.rank % blk.ncols)
                    yield from ga.put(
                        (blk.row0, blk.row0 + 1, col, col + 1),
                        np.array([[float(ctx.rank)]]),
                    )
            yield from ga.sync(mode)
            snapshot = yield from ga.get((0, 12, 0, 12))
            return snapshot

        snapshots = {}
        for mode in ("current", "new"):
            rt = make_cluster(nprocs=4)
            snapshots[mode] = rt.run_spmd(main, mode)[0]
        np.testing.assert_array_equal(snapshots["current"], snapshots["new"])

    def test_fence_modes_agree_on_final_state(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(ctx.nprocs, initial=0)
            for peer in range(ctx.nprocs):
                if peer != ctx.rank:
                    yield from ctx.armci.acc(
                        GlobalAddress(peer, base + ctx.rank), [ctx.rank + 1]
                    )
            yield from ctx.armci.barrier()
            return ctx.region.read_many(base, ctx.nprocs)

        outcomes = {}
        for fence_mode in ("confirm", "ack"):
            rt = make_cluster(nprocs=4, fence_mode=fence_mode)
            outcomes[fence_mode] = rt.run_spmd(main)
        assert outcomes["confirm"] == outcomes["ack"]


class TestDeterminism:
    def test_identical_runs_identical_virtual_times(self, make_cluster):
        def program(ctx):
            ga = GlobalArray(ctx, "d2", (8, 8))
            lock = make_lock("mcs", ctx, home_rank=0, name="d2")
            for _ in range(3):
                yield from lock.acquire()
                yield from lock.release()
            yield from ga.put(ga.my_block_section(), np.ones(ga.local_block().shape))
            yield from ga.sync("new")
            yield from ctx.armci.barrier()
            return ctx.now

        times = []
        for _run in range(2):
            rt = make_cluster(nprocs=4)
            times.append((rt.run_spmd(program), rt.env.now, rt.env.events_processed))
        assert times[0] == times[1]

    def test_seed_only_affects_jittered_runs(self, make_cluster):
        from repro.net.faults import FaultPlan
        from repro.net.params import myrinet2000

        def program(ctx):
            base = ctx.region.alloc(1)
            peer = (ctx.rank + 1) % ctx.nprocs
            yield from ctx.armci.put(GlobalAddress(peer, base), [1])
            yield from ctx.armci.barrier()
            return ctx.now

        def run(seed, jitter):
            faults = None
            if jitter:
                faults = FaultPlan.uniform(
                    reorder_rate=1.0, reorder_window_us=jitter, reliable=False
                )
            rt = make_cluster(
                nprocs=4, params=myrinet2000(seed=seed, faults=faults)
            )
            rt.run_spmd(program)
            if jitter:
                assert rt.fabric.faults.stats.reordered > 0
            return rt.env.now

        assert run(1, 0.0) == run(2, 0.0)  # seed irrelevant without jitter
        assert run(1, 30.0) != run(2, 30.0)  # jitter draws differ by seed


class TestScaleSmoke:
    def test_thirty_two_processes_all_machinery(self, make_cluster):
        """A larger configuration exercising every subsystem at once."""

        def main(ctx):
            ga = GlobalArray(ctx, "big", (64, 64))
            lock = make_lock("mcs", ctx, home_rank=3, name="big")
            peer = (ctx.rank + 7) % ctx.nprocs
            # Cross-rank addressing needs the collective allocation: raw
            # alloc() offsets differ across ranks because constructors
            # (e.g. the lock home's cells) interleave.
            table = yield from ctx.armci.malloc(4, key="slab")
            yield from ctx.armci.put(table[peer], [ctx.rank] * 4)
            yield from lock.acquire()
            yield from lock.release()
            # "auto" would be unsafe here: MCS protocol puts make the
            # per-rank dirty counts asymmetric (see armci.barrier docs).
            yield from ga.sync("new")
            total = yield from collectives.allreduce_sum(ctx.comm, [1])
            return total[0]

        rt = make_cluster(nprocs=32, procs_per_node=2)
        assert rt.run_spmd(main) == [32] * 32
