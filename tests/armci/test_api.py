"""Unit tests for the ARMCI client API (put/get/acc/rmw, accounting)."""

import pytest

from repro.runtime.memory import GlobalAddress


class TestPut:
    def test_remote_put_then_fence_visible(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(3, initial=0)
            if ctx.rank == 0:
                yield from ctx.armci.put(GlobalAddress(1, base), [1, 2, 3])
                yield from ctx.armci.fence(1)
                yield from ctx.comm.send(1, "done")
                return None
            yield from ctx.comm.recv(source=0)
            return ctx.region.read_many(base, 3)

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main)[1] == [1, 2, 3]

    def test_local_put_completes_synchronously(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(2, initial=0)
            peer = ctx.rank ^ 1  # same node
            yield from ctx.armci.put(GlobalAddress(peer, base), [9, 9])
            return None

        rt = make_cluster(nprocs=2, procs_per_node=2)
        rt.run_spmd(main)
        assert rt.regions[0].read_many(0, 2) == [9, 9]
        assert rt.armcis[0].stats["puts_local"] == 1
        assert rt.armcis[0].stats["puts_remote"] == 0

    def test_empty_put_is_noop(self, make_cluster):
        def main(ctx):
            ctx.region.alloc(1)
            yield from ctx.armci.put(GlobalAddress(ctx.rank, 0), [])
            return ctx.now

        rt = make_cluster(nprocs=1)
        assert rt.run_spmd(main) == [0.0]

    def test_op_init_counts_remote_writes_only(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1)
            if ctx.rank == 0:
                yield from ctx.armci.put(GlobalAddress(1, base), [1])
                yield from ctx.armci.put(GlobalAddress(1, base), [2])
                yield from ctx.armci.put(GlobalAddress(2, base), [3])
            yield from ctx.armci.barrier()
            return list(ctx.armci.op_init)

        rt = make_cluster(nprocs=3)
        results = rt.run_spmd(main)
        assert results[0] == [0, 2, 1]
        assert results[1] == [0, 0, 0]

    def test_put_segments_roundtrip(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(10, initial=0)
            if ctx.rank == 0:
                yield from ctx.armci.put_segments(
                    1, [(base, [1, 2]), (base + 4, [5]), (base + 8, [8, 9])]
                )
                yield from ctx.armci.fence(1)
            yield from ctx.armci.barrier()
            return ctx.region.read_many(base, 10)

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main)[1] == [1, 2, 0, 0, 5, 0, 0, 0, 8, 9]

    def test_put_segments_is_one_message(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(6)
            if ctx.rank == 0:
                yield from ctx.armci.put_segments(
                    1, [(base + i, [i]) for i in range(6)]
                )
            yield from ctx.armci.barrier()

        rt = make_cluster(nprocs=2)
        rt.run_spmd(main)
        assert rt.servers[1].stats.puts == 1


class TestGet:
    def test_remote_get(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(2)
            ctx.region.write_many(base, [ctx.rank * 10, ctx.rank * 10 + 1])
            yield from ctx.armci.barrier()
            peer = (ctx.rank + 1) % ctx.nprocs
            values = yield from ctx.armci.get(GlobalAddress(peer, base), 2)
            return values

        rt = make_cluster(nprocs=3)
        assert rt.run_spmd(main) == [[10, 11], [20, 21], [0, 1]]

    def test_local_get_no_messages(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1)
            ctx.region.write(base, 5)
            value = yield from ctx.armci.get(GlobalAddress(ctx.rank, base), 1)
            return value

        rt = make_cluster(nprocs=1)
        assert rt.run_spmd(main) == [[5]]
        assert rt.fabric.stats.messages == 0

    def test_get_count_validation(self, make_cluster):
        def main(ctx):
            ctx.region.alloc(1)
            yield from ctx.armci.get(GlobalAddress(ctx.rank, 0), 0)

        rt = make_cluster(nprocs=1)
        with pytest.raises(ValueError, match="count"):
            rt.run_spmd(main)

    def test_get_segments(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(6)
            ctx.region.write_many(base, [0, 1, 2, 3, 4, 5])
            yield from ctx.armci.barrier()
            peer = (ctx.rank + 1) % ctx.nprocs
            values = yield from ctx.armci.get_segments(
                peer, [(base + 1, 2), (base + 5, 1)]
            )
            return values

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main) == [[1, 2, 5], [1, 2, 5]]


class TestAcc:
    def test_remote_accumulate(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(2, initial=0.0)
            if ctx.rank != 0:
                yield from ctx.armci.acc(
                    GlobalAddress(0, base), [1.0, 2.0], scale=ctx.rank
                )
            yield from ctx.armci.barrier()
            return ctx.region.read_many(base, 2)

        rt = make_cluster(nprocs=4)
        results = rt.run_spmd(main)
        assert results[0] == [6.0, 12.0]  # (1+2+3)*[1,2]

    def test_local_accumulate(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1, initial=10.0)
            yield from ctx.armci.acc(GlobalAddress(ctx.rank, base), [5.0])
            return ctx.region.read(base)

        rt = make_cluster(nprocs=1)
        assert rt.run_spmd(main) == [15.0]


class TestRmw:
    def test_remote_fetch_add_is_atomic_across_ranks(self, make_cluster):
        def main(ctx):
            base = ctx.regions[0].alloc_named("ctr", 1, 0)
            tickets = []
            for _ in range(5):
                t = yield from ctx.armci.rmw("fetch_add", GlobalAddress(0, base), 1)
                tickets.append(t)
            yield from ctx.armci.barrier()
            return tickets

        rt = make_cluster(nprocs=4)
        results = rt.run_spmd(main)
        all_tickets = sorted(t for per_rank in results for t in per_rank)
        assert all_tickets == list(range(20))

    def test_swap_and_cas_remote(self, make_cluster):
        def main(ctx):
            base = ctx.regions[0].alloc_named("cell", 1, 0)
            ga = GlobalAddress(0, base)
            if ctx.rank == 1:
                old = yield from ctx.armci.rmw("swap", ga, 111)
                ok_bad = yield from ctx.armci.rmw("cas", ga, 999, 5)
                ok_good = yield from ctx.armci.rmw("cas", ga, 111, 5)
                return (old, ok_bad, ok_good)
            yield ctx.compute(1)
            return None

        rt = make_cluster(nprocs=2)
        results = rt.run_spmd(main)
        assert results[1] == (0, False, True)
        assert rt.regions[0].read(0) == 5

    def test_pair_ops_remote(self, make_cluster):
        def main(ctx):
            base = ctx.regions[0].alloc_named("pair", 2, -1)
            ga = GlobalAddress(0, base)
            if ctx.rank == 1:
                old = yield from ctx.armci.rmw("swap_pair", ga, (1, 50))
                pair = yield from ctx.armci.rmw("read_pair", ga)
                ok = yield from ctx.armci.rmw("cas_pair", ga, (1, 50), (-1, -1))
                return (tuple(old), tuple(pair), ok)
            yield ctx.compute(1)
            return None

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main)[1] == ((-1, -1), (1, 50), True)

    def test_local_rmw_uses_no_messages(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1, 0)
            result = yield from ctx.armci.rmw(
                "fetch_add", GlobalAddress(ctx.rank, base), 7
            )
            return result

        rt = make_cluster(nprocs=1)
        assert rt.run_spmd(main) == [0]
        assert rt.fabric.stats.messages == 0

    def test_unknown_op_rejected(self, make_cluster):
        def main(ctx):
            ctx.region.alloc(1)
            yield from ctx.armci.rmw("frobnicate", GlobalAddress(ctx.rank, 0))

        rt = make_cluster(nprocs=1)
        with pytest.raises(ValueError, match="unknown rmw op"):
            rt.run_spmd(main)


class TestLoadStore:
    def test_load_store_same_node(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1, 0)
            peer = ctx.rank ^ 1
            yield from ctx.armci.store(GlobalAddress(peer, base), ctx.rank + 100)
            yield ctx.compute(1)
            return ctx.region.read(base)

        rt = make_cluster(nprocs=2, procs_per_node=2)
        assert rt.run_spmd(main) == [101, 100]

    def test_store_remote_rejected(self, make_cluster):
        def main(ctx):
            ctx.region.alloc(1)
            if ctx.rank == 0:
                yield from ctx.armci.store(GlobalAddress(1, 0), 1)
            else:
                yield ctx.compute(1)

        rt = make_cluster(nprocs=2)
        with pytest.raises(ValueError, match="non-local"):
            rt.run_spmd(main)

    def test_pair_helpers(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(2, -1)
            ga_own = GlobalAddress(ctx.rank, base)
            yield from ctx.armci.store_pair(ga_own, (ctx.rank, 7))
            local = yield from ctx.armci.load_pair(ga_own)
            yield from ctx.armci.barrier()
            peer = (ctx.rank + 1) % ctx.nprocs
            remote = yield from ctx.armci.load_pair(GlobalAddress(peer, base))
            yield from ctx.armci.store_pair(GlobalAddress(peer, base), (99, 99))
            yield from ctx.armci.barrier()
            return (local, tuple(remote))

        rt = make_cluster(nprocs=2)
        results = rt.run_spmd(main)
        assert results[0] == ((0, 7), (1, 7))
        assert results[1] == ((1, 7), (0, 7))
        assert rt.regions[0].read_many(0, 2) == [99, 99]


class TestApiOverheadAccounting:
    def test_api_call_charged(self, make_cluster):
        from repro.net.params import myrinet2000

        def main(ctx):
            base = ctx.region.alloc(1)
            t0 = ctx.now
            yield from ctx.armci.get(GlobalAddress(ctx.rank, base), 1)
            return ctx.now - t0

        params = myrinet2000(api_call_us=10.0, shm_access_us=0.0,
                             mem_copy_per_byte_us=0.0)
        rt = make_cluster(nprocs=1, params=params)
        assert rt.run_spmd(main) == [10.0]

    def test_invalid_fence_mode_rejected(self, make_cluster):
        with pytest.raises(ValueError, match="fence_mode"):
            make_cluster(nprocs=2, fence_mode="bogus")
