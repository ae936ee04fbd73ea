"""Tests for the related-work token algorithms: Raymond and Naimi-Trehel."""

import pytest

from repro.locks.naimi import NaimiTrehelLock
from repro.locks.raymond import RaymondLock, initial_holder, tree_neighbors

from .helpers import assert_mutual_exclusion, critical_section_program


class TestRaymondTree:
    def test_neighbors_heap_shape(self):
        assert tree_neighbors(0, 7) == [1, 2]
        assert tree_neighbors(1, 7) == [0, 3, 4]
        assert tree_neighbors(3, 7) == [1]
        assert tree_neighbors(2, 4) == [0]

    def test_neighbors_symmetric(self):
        nprocs = 11
        for a in range(nprocs):
            for b in tree_neighbors(a, nprocs):
                assert a in tree_neighbors(b, nprocs)

    @pytest.mark.parametrize("home", [0, 1, 3, 6])
    def test_initial_holder_points_toward_home(self, home):
        """Following holder pointers from any rank must reach home."""
        nprocs = 7
        for rank in range(nprocs):
            node, hops = rank, 0
            while node != home:
                nxt = initial_holder(node, home, nprocs)
                assert nxt != "self"
                assert nxt in tree_neighbors(node, nprocs)
                node = nxt
                hops += 1
                assert hops <= nprocs
        assert initial_holder(home, home, nprocs) == "self"


@pytest.mark.parametrize("kind", ["raymond", "naimi"])
class TestTokenMutualExclusion:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8])
    def test_exclusion(self, make_cluster, kind, nprocs):
        main, intervals = critical_section_program(kind, iterations=5)
        rt = make_cluster(nprocs=nprocs)
        rt.run_spmd(main)
        assert len(intervals) == 5 * nprocs
        assert_mutual_exclusion(intervals)

    @pytest.mark.parametrize("home", [0, 2])
    def test_exclusion_various_homes(self, make_cluster, kind, home):
        main, intervals = critical_section_program(kind, iterations=4, home_rank=home)
        rt = make_cluster(nprocs=4)
        rt.run_spmd(main)
        assert_mutual_exclusion(intervals)

    def test_no_acquisition_lost(self, make_cluster, kind):
        main, intervals = critical_section_program(kind, iterations=8)
        rt = make_cluster(nprocs=4)
        locks = rt.run_spmd(main)
        seen = {(r, i) for (_s, _e, r, i) in intervals}
        assert seen == {(r, i) for r in range(4) for i in range(8)}
        assert all(l.stats.acquires == 8 for l in locks)

    def test_smp_placement(self, make_cluster, kind):
        main, intervals = critical_section_program(kind, iterations=4)
        rt = make_cluster(nprocs=4, procs_per_node=2)
        rt.run_spmd(main)
        assert_mutual_exclusion(intervals)

    def test_timing_stats_collected(self, make_cluster, kind):
        main, _ = critical_section_program(kind, iterations=5)
        rt = make_cluster(nprocs=2)
        locks = rt.run_spmd(main)
        for lock in locks:
            assert lock.acquire_sw.stats().count == 5
            assert lock.release_sw.stats().count == 5


class TestTokenEconomy:
    def test_raymond_messages_bounded_by_tree_paths(self, make_cluster):
        """Per acquisition, requests travel at most the tree diameter."""
        main, _ = critical_section_program("raymond", iterations=6)
        rt = make_cluster(nprocs=8)
        locks = rt.run_spmd(main)
        requests = sum(l.stats.counters.get("sent_request", 0) for l in locks)
        privileges = sum(l.stats.counters.get("sent_privilege", 0) for l in locks)
        total_acquires = 6 * 8
        diameter = 2 * 3  # heap of 8: depth 3
        assert requests <= total_acquires * diameter
        assert privileges <= total_acquires * diameter

    def test_naimi_token_goes_requester_to_requester(self, make_cluster):
        """Under saturation, the token moves directly: ~1 token message per
        handoff, not a walk through the home."""
        main, _ = critical_section_program("naimi", iterations=6)
        rt = make_cluster(nprocs=8)
        locks = rt.run_spmd(main)
        tokens = sum(l.stats.counters.get("sent_token", 0) for l in locks)
        total_acquires = 6 * 8
        assert tokens <= total_acquires  # at most one token msg per acquire

    def test_idle_token_reacquired_locally_for_free(self, make_cluster):
        """Naimi: the process holding the idle token re-enters without any
        inter-node message."""

        def main(ctx):
            lock = NaimiTrehelLock(ctx, home_rank=0)
            if ctx.rank == 0:
                for _ in range(5):
                    yield from lock.acquire()
                    yield from lock.release()
            yield from ctx.armci.barrier()
            return lock.stats.counters

        rt = make_cluster(nprocs=2)
        counters = rt.run_spmd(main)[0]
        assert counters.get("sent_token", 0) == 0
        assert counters.get("sent_request", 0) == 0


class TestCrossAlgorithmComparison:
    def test_all_algorithms_agree_on_protected_counter(self, make_cluster):
        """The canonical increment test: every algorithm must produce the
        same final counter value."""

        def main(ctx, kind):
            from repro.locks import make_lock

            counter = ctx.regions[0].alloc_named("cmp", 1, 0)
            lock = make_lock(kind, ctx, home_rank=0, name="cmp")
            for _ in range(5):
                yield from lock.acquire()
                v = yield from ctx.armci.get(ctx.ga(0, counter))
                yield from ctx.armci.put(ctx.ga(0, counter), [v[0] + 1])
                yield from ctx.armci.fence(0)
                yield from lock.release()
            yield from ctx.armci.barrier()
            return None

        for kind in ("hybrid", "mcs", "raymond", "naimi", "server"):
            rt = make_cluster(nprocs=4)
            rt.run_spmd(main, kind)
            assert rt.regions[0].read(0) == 20, kind
