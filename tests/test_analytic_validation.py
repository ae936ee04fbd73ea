"""Closed-form validation: measured times match the cost model's algebra.

These tests pin the simulator to hand-computable predictions for simple
protocols, so regressions in the timing machinery can't hide behind the
statistical experiments.  All use zeroed ancillary costs to keep the
algebra exact.
"""

import pytest

from repro.mp import collectives
from repro.net.params import MSG_HEADER_BYTES, NetworkParams
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress


def exact_params(**overrides):
    """A cost model with only the terms the test accounts for."""
    base = dict(
        inter_latency_us=10.0,
        per_byte_us=0.0,
        o_send_us=1.0,
        o_recv_us=1.0,
        intra_latency_us=0.0,
        shm_access_us=0.0,
        shm_atomic_us=0.0,
        poll_detect_us=0.0,
        server_proc_us=2.0,
        server_wake_us=0.0,
        mem_copy_per_byte_us=0.0,
        server_fence_check_us=0.0,
        server_lock_op_us=0.0,
        api_call_us=0.0,
        mp_call_us=0.0,
    )
    base.update(overrides)
    return NetworkParams(**base)


class TestPointToPoint:
    def test_mp_one_way_time(self, make_cluster):
        """send->recv = o_send + L + o_recv, receiver pre-blocked."""

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, "x", payload_bytes=0)
                return None
            msg = yield from ctx.comm.recv(source=0)
            return ctx.now

        rt = make_cluster(nprocs=2, params=exact_params())
        arrival = rt.run_spmd(main)[1]
        assert arrival == pytest.approx(1.0 + 10.0 + 1.0)

    def test_ping_pong_round_trip(self, make_cluster):
        def main(ctx):
            if ctx.rank == 0:
                t0 = ctx.now
                yield from ctx.comm.send(1, "ping", payload_bytes=0)
                yield from ctx.comm.recv(source=1)
                return ctx.now - t0
            yield from ctx.comm.recv(source=0)
            yield from ctx.comm.send(0, "pong", payload_bytes=0)
            return None

        rt = make_cluster(nprocs=2, params=exact_params())
        rtt = rt.run_spmd(main)[0]
        # 2 x (o_send + L + o_recv) = 24.
        assert rtt == pytest.approx(24.0)

    def test_bandwidth_term(self, make_cluster):
        """A large message adds size x per_byte to the one-way time."""

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, "big", payload_bytes=1000 - MSG_HEADER_BYTES)
                return None
            yield from ctx.comm.recv(source=0)
            return ctx.now

        rt = make_cluster(nprocs=2, params=exact_params(per_byte_us=0.05))
        arrival = rt.run_spmd(main)[1]
        assert arrival == pytest.approx(1.0 + 1000 * 0.05 + 10.0 + 1.0)


class TestOneSided:
    def test_remote_get_round_trip(self, make_cluster):
        """get RT = o_send + L + o_recv(server) + proc + o_send(server) + L
        + o_recv(client)."""

        def main(ctx):
            base = ctx.region.alloc(1)
            if ctx.rank == 0:
                t0 = ctx.now
                yield from ctx.armci.get(GlobalAddress(1, base), 1)
                return ctx.now - t0
            yield ctx.compute(0)
            return None

        rt = make_cluster(nprocs=2, params=exact_params())
        rtt = rt.run_spmd(main)[0]
        assert rtt == pytest.approx(1 + 10 + 1 + 2 + 1 + 10 + 1)

    def test_put_injection_is_one_overhead(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1)
            if ctx.rank == 0:
                t0 = ctx.now
                yield from ctx.armci.put(GlobalAddress(1, base), [1])
                return ctx.now - t0
            yield ctx.compute(0)
            return None

        rt = make_cluster(nprocs=2, params=exact_params())
        assert rt.run_spmd(main)[0] == pytest.approx(1.0)  # o_send only

    def test_server_wake_charged_once(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1)
            if ctx.rank == 0:
                t0 = ctx.now
                yield from ctx.armci.get(GlobalAddress(1, base), 1)
                return ctx.now - t0
            yield ctx.compute(0)
            return None

        rt = make_cluster(nprocs=2, params=exact_params(server_wake_us=50.0))
        rtt = rt.run_spmd(main)[0]
        assert rtt == pytest.approx(26.0 + 50.0)


class TestCollectiveAlgebra:
    @pytest.mark.parametrize("nprocs,rounds", [(2, 1), (4, 2), (8, 3), (16, 4)])
    def test_barrier_rounds(self, make_cluster, nprocs, rounds):
        """Dissemination barrier = ceil(log2 N) phases; each phase's span is
        one overlapped exchange = o_send + L + o_recv."""

        def main(ctx):
            t0 = ctx.now
            yield from collectives.barrier(ctx.comm)
            return ctx.now - t0

        rt = make_cluster(nprocs=nprocs, params=exact_params())
        elapsed = max(rt.run_spmd(main))
        phase = 1.0 + 10.0 + 1.0
        # Lower bound exact; allow the send-side pipelining slack of one
        # overhead per phase.
        assert elapsed >= rounds * phase - 1e-9
        assert elapsed <= rounds * (phase + 1.0) + 1e-9

    def test_linear_allfence_round_trips(self, make_cluster):
        """One process fencing K dirty servers serially costs K round trips
        (no contention)."""

        def main(ctx):
            base = ctx.region.alloc(1)
            if ctx.rank == 0:
                for peer in (1, 2, 3):
                    yield from ctx.armci.put(GlobalAddress(peer, base), [1])
                t0 = ctx.now
                yield from ctx.armci.allfence()
                return ctx.now - t0
            yield ctx.compute(0)
            return None

        rt = make_cluster(nprocs=4, params=exact_params())
        elapsed = rt.run_spmd(main)[0]
        round_trip = 1 + 10 + 1 + 2 + 1 + 10 + 1  # same path as a get
        assert elapsed == pytest.approx(3 * round_trip)

    def test_paper_cost_claim_barrier_vs_allfence(self, make_cluster):
        """The headline algebra: exchange barrier ~ 2 log2(N) latencies vs
        linear fence ~ 2(N-1) latencies, on a clean cost model."""

        def barrier_prog(ctx):
            t0 = ctx.now
            yield from ctx.armci.barrier(algorithm="exchange")
            return ctx.now - t0

        def fence_prog(ctx):
            base = ctx.region.alloc(1)
            for peer in range(ctx.nprocs):
                if peer != ctx.rank:
                    yield from ctx.armci.put(GlobalAddress(peer, base), [1])
            yield from collectives.barrier(ctx.comm)
            t0 = ctx.now
            yield from ctx.armci.allfence()
            return ctx.now - t0

        nprocs = 16
        latency_only = exact_params(
            o_send_us=0.0, o_recv_us=0.0, server_proc_us=0.0
        )
        rt = make_cluster(nprocs=nprocs, params=latency_only)
        barrier_time = max(rt.run_spmd(barrier_prog))
        # 2 log2(16) = 8 latencies.
        assert barrier_time == pytest.approx(8 * 10.0)

        rt = make_cluster(nprocs=nprocs, params=latency_only)
        fence_time = max(rt.run_spmd(fence_prog))
        # >= 2(N-1) latencies = 300; convoying can only add.
        assert fence_time >= 2 * (nprocs - 1) * 10.0 - 1e-9
