"""Unit tests for point-to-point messaging."""

import pytest

from repro.mp.comm import ANY_SOURCE, ANY_TAG, Comm, _estimate_bytes


class TestSendRecv:
    def test_basic_roundtrip(self, make_cluster):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, {"k": 1}, tag=5)
                return None
            msg = yield from ctx.comm.recv(source=0, tag=5)
            return (msg.src, msg.tag, msg.payload)

        rt = make_cluster(nprocs=2)
        results = rt.run_spmd(main)
        assert results[1] == (0, 5, {"k": 1})

    def test_recv_any_source(self, make_cluster):
        def main(ctx):
            if ctx.rank == 0:
                got = []
                for _ in range(2):
                    msg = yield from ctx.comm.recv(source=ANY_SOURCE, tag=1)
                    got.append(msg.src)
                return sorted(got)
            yield from ctx.comm.send(0, ctx.rank, tag=1)

        rt = make_cluster(nprocs=3)
        assert rt.run_spmd(main)[0] == [1, 2]

    def test_recv_any_tag(self, make_cluster):
        def main(ctx):
            if ctx.rank == 0:
                msg = yield from ctx.comm.recv(source=1, tag=ANY_TAG)
                return msg.tag
            yield from ctx.comm.send(0, "x", tag=77)

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main)[0] == 77

    def test_tag_filtering_keeps_unmatched(self, make_cluster):
        def main(ctx):
            if ctx.rank == 1:
                yield from ctx.comm.send(0, "first", tag=1)
                yield from ctx.comm.send(0, "second", tag=2)
                return None
            msg2 = yield from ctx.comm.recv(source=1, tag=2)
            msg1 = yield from ctx.comm.recv(source=1, tag=1)
            return (msg2.payload, msg1.payload)

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main)[0] == ("second", "first")

    def test_same_tag_fifo_order(self, make_cluster):
        def main(ctx):
            if ctx.rank == 1:
                for i in range(5):
                    yield from ctx.comm.send(0, i, tag=3)
                return None
            got = []
            for _ in range(5):
                msg = yield from ctx.comm.recv(source=1, tag=3)
                got.append(msg.payload)
            return got

        rt = make_cluster(nprocs=2)
        assert rt.run_spmd(main)[0] == [0, 1, 2, 3, 4]

    def test_send_to_invalid_rank(self, make_cluster):
        def main(ctx):
            yield from ctx.comm.send(99, "x")

        rt = make_cluster(nprocs=2)
        with pytest.raises(ValueError, match="out of range"):
            rt.run_spmd(main)


class TestSendrecvOverlap:
    def test_exchange_costs_one_latency(self, make_cluster):
        """An exchange phase, a send then a receive from the same peer,
        costs ~one one-way latency, not two: the send completes locally, so
        the two overlap (the property behind the paper's log2(N) barrier
        analysis)."""

        def main(ctx):
            peer = ctx.rank ^ 1
            t0 = ctx.now
            yield from ctx.comm.send(peer, "x", tag=9)
            yield from ctx.comm.recv(source=peer, tag=9)
            return ctx.now - t0

        rt = make_cluster(nprocs=2)
        exchange_time = max(rt.run_spmd(main))
        p = rt.params
        one_way_floor = p.inter_latency_us
        # Must be far closer to 1x than 2x the one-way wire latency + overheads.
        assert exchange_time < 2 * one_way_floor + 4 * p.mp_call_us
        assert exchange_time >= one_way_floor

    def test_sendrecv_distinct_source(self, make_cluster):
        def main(ctx):
            right = (ctx.rank + 1) % ctx.nprocs
            left = (ctx.rank - 1) % ctx.nprocs
            yield from ctx.comm.send(right, ctx.rank, tag=4)
            msg = yield from ctx.comm.recv(source=left, tag=4)
            return msg.payload

        rt = make_cluster(nprocs=4)
        assert rt.run_spmd(main) == [3, 0, 1, 2]


class TestEstimateBytes:
    def test_scalars(self):
        assert _estimate_bytes(1) == 8
        assert _estimate_bytes(2.5) == 8
        assert _estimate_bytes(True) == 8

    def test_sequences(self):
        assert _estimate_bytes([1, 2, 3]) == 24
        assert _estimate_bytes(()) == 8

    def test_none_and_bytes(self):
        assert _estimate_bytes(None) == 0
        assert _estimate_bytes(b"abcd") == 4

    def test_fallback(self):
        assert _estimate_bytes(object()) > 0
