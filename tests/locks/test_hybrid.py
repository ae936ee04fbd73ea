"""Unit tests for the original ARMCI hybrid lock."""

import pytest

from repro.locks.hybrid import HybridLock

from .helpers import assert_mutual_exclusion, critical_section_program


class TestMutualExclusion:
    @pytest.mark.parametrize("nprocs,ppn", [(2, 1), (4, 1), (4, 2), (6, 3)])
    def test_exclusion_across_placements(self, make_cluster, nprocs, ppn):
        main, intervals = critical_section_program("hybrid", iterations=6)
        rt = make_cluster(nprocs=nprocs, procs_per_node=ppn)
        rt.run_spmd(main)
        assert len(intervals) == 6 * nprocs
        assert_mutual_exclusion(intervals)

    def test_exclusion_with_remote_home(self, make_cluster):
        main, intervals = critical_section_program(
            "hybrid", iterations=6, home_rank=2
        )
        rt = make_cluster(nprocs=4)
        rt.run_spmd(main)
        assert_mutual_exclusion(intervals)

    def test_every_acquisition_happens(self, make_cluster):
        main, intervals = critical_section_program("hybrid", iterations=10)
        rt = make_cluster(nprocs=4)
        rt.run_spmd(main)
        seen = {(r, i) for (_s, _e, r, i) in intervals}
        assert seen == {(r, i) for r in range(4) for i in range(10)}


class TestProtocolDetails:
    def test_local_requester_takes_ticket_directly(self, make_cluster):
        """The home-node requester must not send LockRequests (Figure 3a)."""

        def main(ctx):
            lock = HybridLock(ctx, home_rank=0)
            yield from lock.acquire()
            yield from lock.release()
            return lock.stats.counters

        rt = make_cluster(nprocs=1)
        counters = rt.run_spmd(main)[0]
        assert counters.get("remote_requests", 0) == 0
        assert rt.fabric.stats.by_payload.get("LockRequest", 0) == 0

    def test_remote_requester_goes_through_server(self, make_cluster):
        def main(ctx):
            lock = HybridLock(ctx, home_rank=0)
            if ctx.rank == 1:
                yield from lock.acquire()
                yield from lock.release()
            yield from ctx.armci.barrier()
            return lock.stats.counters

        rt = make_cluster(nprocs=2)
        counters = rt.run_spmd(main)[1]
        assert counters.get("remote_requests") == 1
        assert rt.servers[0].stats.locks == 1

    def test_release_always_contacts_server(self, make_cluster):
        """Even a purely local lock/unlock sends the unlock message — the
        hybrid's weakness the paper calls out (§3.2.1)."""

        def main(ctx):
            lock = HybridLock(ctx, home_rank=0)
            for _ in range(3):
                yield from lock.acquire()
                yield from lock.release()
            yield ctx.compute(200)  # let the unlocks drain
            return None

        rt = make_cluster(nprocs=1)
        rt.run_spmd(main)
        assert rt.servers[0].stats.unlocks == 3

    def test_release_is_fire_and_forget(self, make_cluster):
        """Release returns without waiting for any server reply."""

        def main(ctx):
            lock = HybridLock(ctx, home_rank=1)  # remote home
            yield from lock.acquire()
            t0 = ctx.now
            yield from lock.release()
            release_time = ctx.now - t0
            yield from ctx.armci.barrier()
            return release_time

        rt = make_cluster(nprocs=2)
        release_time = rt.run_spmd(main)[0]
        p = rt.params
        # Far less than a round trip: just the api + send overhead.
        assert release_time < p.inter_latency_us

    def test_lock_passes_to_remote_waiter_via_two_messages(self, make_cluster):
        """Handoff = unlock message + grant message (2 latencies, §3.2.2)."""

        def main(ctx):
            lock = HybridLock(ctx, home_rank=0)
            if ctx.rank == 1:
                yield from lock.acquire()
                yield from ctx.comm.send(2, "i have it")
                yield ctx.compute(30)
                yield from lock.release()
            elif ctx.rank == 2:
                yield from ctx.comm.recv(source=1)
                yield from lock.acquire()
                yield from lock.release()
            yield from ctx.armci.barrier()
            return None

        rt = make_cluster(nprocs=3)
        rt.run_spmd(main)
        assert rt.servers[0].stats.grants == 2
        assert rt.servers[0].stats.unlocks == 2

    def test_two_handles_same_name_share_lock(self, make_cluster):
        main, intervals = critical_section_program("hybrid", iterations=4)
        rt = make_cluster(nprocs=2)
        rt.run_spmd(main)
        # Both ranks constructed their own handle; exclusion proves shared state.
        assert_mutual_exclusion(intervals)

    def test_distinct_names_are_independent_locks(self, make_cluster):
        def main(ctx):
            mine = HybridLock(ctx, home_rank=0, name=f"lock{ctx.rank}")
            yield from mine.acquire()
            yield ctx.compute(50)
            yield from mine.release()
            yield from ctx.armci.barrier()
            return mine.stats.acquires

        rt = make_cluster(nprocs=3)
        # Must not deadlock: each rank holds its own lock concurrently.
        assert rt.run_spmd(main) == [1, 1, 1]


class TestTiming:
    def test_acquire_stats_recorded(self, make_cluster):
        main, _ = critical_section_program("hybrid", iterations=5)
        rt = make_cluster(nprocs=2)
        locks = rt.run_spmd(main)
        for lock in locks:
            assert lock.acquire_sw.stats().count == 5
            assert lock.release_sw.stats().count == 5
            assert lock.total_stats().count == 5
            assert lock.total_stats().mean > lock.release_sw.stats().mean
