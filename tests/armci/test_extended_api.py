"""Tests for the extended ARMCI API: explicit non-blocking handles,
strided transfers, collective malloc, and notify/wait."""

import pytest

from repro.armci.strided import stride_runs
from repro.runtime.memory import GlobalAddress


class TestNbGet:
    def test_overlap_with_computation(self, make_cluster):
        """The get's round trip overlaps a compute block: total time is
        max(compute, roundtrip), not their sum."""

        def main(ctx):
            base = ctx.region.alloc(4)
            ctx.region.write_many(base, [ctx.rank] * 4)
            yield from ctx.armci.barrier()
            if ctx.rank != 0:
                return None
            t0 = ctx.now
            handle = yield from ctx.armci.nb_get(GlobalAddress(1, base), 4)
            yield ctx.compute(500.0)  # >> network round trip
            values = yield from handle.wait()
            return (values, ctx.now - t0)

        rt = make_cluster(nprocs=2)
        values, elapsed = rt.run_spmd(main)[0]
        assert values == [1, 1, 1, 1]
        assert elapsed < 520.0  # compute dominated; RTT hidden

    def test_local_nb_get_completes_immediately(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(2)
            ctx.region.write_many(base, [5, 6])
            handle = yield from ctx.armci.nb_get(GlobalAddress(ctx.rank, base), 2)
            assert handle.done
            values = yield from handle.wait()
            return values

        rt = make_cluster(nprocs=1)
        assert rt.run_spmd(main) == [[5, 6]]

    def test_done_flag_transitions(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1)
            yield from ctx.armci.barrier()
            if ctx.rank != 0:
                return None
            handle = yield from ctx.armci.nb_get(GlobalAddress(1, base), 1)
            immediately = handle.done
            yield ctx.compute(200.0)
            eventually = handle.done
            yield from handle.wait()
            return (immediately, eventually)

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main)[0] == (False, True)

    def test_invalid_count(self, make_cluster):
        def main(ctx):
            ctx.region.alloc(1)
            yield from ctx.armci.nb_get(GlobalAddress(ctx.rank, 0), 0)

        rt = make_cluster(nprocs=1)
        with pytest.raises(ValueError, match="count"):
            rt.run_spmd(main)


class TestNbPut:
    def test_wait_guarantees_remote_completion(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            if ctx.rank == 0:
                handle = yield from ctx.armci.nb_put(GlobalAddress(1, base), [7])
                yield from handle.wait()
                yield from ctx.comm.send(1, "check")
                return None
            yield from ctx.comm.recv(source=0)
            return ctx.region.read(base)

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main)[1] == 7

    def test_wait_guarantee_holds_in_ack_mode_too(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            if ctx.rank == 0:
                handle = yield from ctx.armci.nb_put(GlobalAddress(1, base), [9])
                yield from handle.wait()
                # The implicit fence accounting must also have been settled.
                assert ctx.armci._outstanding.get(ctx.topology.node_of(1), 0) == 0
                yield from ctx.comm.send(1, "check")
                return None
            yield from ctx.comm.recv(source=0)
            return ctx.region.read(base)

        rt = make_cluster(nprocs=2, fence_mode="ack")
        assert rt.run_spmd(main)[1] == 9

    def test_local_and_empty_puts(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            h1 = yield from ctx.armci.nb_put(GlobalAddress(ctx.rank, base), [3])
            h2 = yield from ctx.armci.nb_put(GlobalAddress(ctx.rank, base), [])
            assert h1.done and h2.done
            yield from h1.wait()
            yield from h2.wait()
            return ctx.region.read(base)

        rt = make_cluster(nprocs=1)
        assert rt.run_spmd(main) == [3]

    def test_nb_put_still_counts_for_barrier(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            peer = (ctx.rank + 1) % ctx.nprocs
            yield from ctx.armci.nb_put(GlobalAddress(peer, base), [ctx.rank + 1])
            yield from ctx.armci.barrier()
            return ctx.region.read(base)

        rt = make_cluster(nprocs=3)
        assert rt.run_spmd(main) == [3, 1, 2]


class TestStrideRuns:
    def test_contiguous(self):
        assert stride_runs(10, [], [4]) == [(10, 4)]

    def test_2d_patch(self):
        # 3 rows of 2 cells, row stride 8, base 0.
        assert stride_runs(0, [8], [2, 3]) == [(0, 2), (8, 2), (16, 2)]

    def test_3d_patch(self):
        runs = stride_runs(0, [4, 16], [2, 2, 2])
        assert runs == [(0, 2), (4, 2), (16, 2), (20, 2)]

    def test_validation(self):
        with pytest.raises(ValueError, match="counts"):
            stride_runs(0, [], [])
        with pytest.raises(ValueError, match="strides"):
            stride_runs(0, [1, 2], [1, 2])
        with pytest.raises(ValueError, match="positive"):
            stride_runs(0, [4], [2, 0])
        with pytest.raises(ValueError, match="positive"):
            stride_runs(0, [0], [2, 2])


class TestStridedTransfers:
    def test_put_get_roundtrip(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(64, initial=0.0)
            yield from ctx.armci.barrier()
            if ctx.rank == 0:
                # 4 rows x 3 cells into rank 1, row stride 8.
                values = [float(i) for i in range(12)]
                yield from ctx.armci.put_strided(1, base, [8], [3, 4], values)
                yield from ctx.armci.fence(1)
                got = yield from ctx.armci.get_strided(1, base, [8], [3, 4])
                return got
            yield ctx.compute(1)
            return None

        rt = make_cluster(nprocs=2)
        got = rt.run_spmd(main)[0]
        assert got == [float(i) for i in range(12)]
        # Runs land at 0..2, 8..10, 16..18, 24..26; gaps stay untouched.
        assert rt.regions[1].read(8) == 3.0
        assert rt.regions[1].read(3) == 0.0
        assert rt.regions[1].read(11) == 0.0

    def test_single_message_regardless_of_runs(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(128)
            if ctx.rank == 0:
                yield from ctx.armci.put_strided(
                    1, base, [8], [2, 16], [1.0] * 32
                )
            yield from ctx.armci.barrier()

        rt = make_cluster(nprocs=2)
        rt.run_spmd(main)
        assert rt.servers[1].stats.puts == 1

    def test_value_count_mismatch(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(16)
            yield from ctx.armci.put_strided(0, base, [4], [2, 2], [1.0] * 3)

        rt = make_cluster(nprocs=1)
        with pytest.raises(ValueError, match="values"):
            rt.run_spmd(main)


class TestCollectiveMalloc:
    def test_all_ranks_share_the_table(self, make_cluster):
        def main(ctx):
            table = yield from ctx.armci.malloc(8, key="slab")
            assert len(table) == ctx.nprocs
            # write my rank into everyone's slab slot ctx.rank
            for ga in table:
                if ga.rank != ctx.rank:
                    yield from ctx.armci.put(
                        GlobalAddress(ga.rank, ga.addr + ctx.rank), [ctx.rank + 1]
                    )
            yield from ctx.armci.barrier()
            mine = table[ctx.rank]
            return ctx.region.read_many(mine.addr, ctx.nprocs)

        rt = make_cluster(nprocs=4)
        for rank, values in enumerate(rt.run_spmd(main)):
            expected = [r + 1 if r != rank else 0 for r in range(4)]
            assert values == expected

    def test_distinct_keys_distinct_slabs(self, make_cluster):
        def main(ctx):
            t1 = yield from ctx.armci.malloc(4, key="a")
            t2 = yield from ctx.armci.malloc(4, key="b")
            return (t1[ctx.rank].addr, t2[ctx.rank].addr)

        rt = make_cluster(nprocs=2)
        for a, b in rt.run_spmd(main):
            assert a != b

    def test_invalid_count(self, make_cluster):
        def main(ctx):
            yield from ctx.armci.malloc(0, key="x")

        rt = make_cluster(nprocs=2)
        with pytest.raises(ValueError, match="count"):
            rt.run_spmd(main)


class TestNotifyWait:
    def test_producer_consumer(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            if ctx.rank == 0:
                yield from ctx.armci.put(GlobalAddress(1, base), [123])
                yield from ctx.armci.notify(1)
                return None
            yield from ctx.armci.notify_wait(0)
            # The notify contract: prior puts from the notifier are visible.
            return ctx.region.read(base)

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main)[1] == 123

    def test_notify_contract_in_ack_mode(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            if ctx.rank == 0:
                yield from ctx.armci.put(GlobalAddress(1, base), [55])
                yield from ctx.armci.notify(1)
                return None
            yield from ctx.armci.notify_wait(0)
            return ctx.region.read(base)

        rt = make_cluster(nprocs=2, fence_mode="ack")
        assert rt.run_spmd(main)[1] == 55

    def test_counting_semantics(self, make_cluster):
        def main(ctx):
            if ctx.rank == 0:
                for _ in range(3):
                    yield from ctx.armci.notify(1)
                return None
            yield from ctx.armci.notify_wait(0, count=3)
            return ctx.now

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main)[1] > 0

    def test_pairwise_channels_independent(self, make_cluster):
        def main(ctx):
            if ctx.rank in (0, 1):
                yield from ctx.armci.notify(2)
                return None
            yield from ctx.armci.notify_wait(0)
            yield from ctx.armci.notify_wait(1)
            return True

        rt = make_cluster(nprocs=3)
        assert rt.run_spmd(main)[2] is True

    def test_invalid_count(self, make_cluster):
        def main(ctx):
            yield from ctx.armci.notify_wait(0, count=0)

        rt = make_cluster(nprocs=2)
        with pytest.raises(ValueError, match="count"):
            rt.run_spmd(main)
