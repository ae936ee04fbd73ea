"""Unit and property tests for the collective operations."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp import collectives
from repro.net.faults import FaultPlan, ProcessCrash
from repro.net.params import myrinet2000
from repro.nic.engine import NicEngine
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress

ALL_SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16]


def spmd(nprocs, main, *args):
    rt = ClusterRuntime(nprocs, params=myrinet2000())
    return rt, rt.run_spmd(main, *args)


class TestBarrier:
    @pytest.mark.parametrize("nprocs", ALL_SIZES)
    def test_no_rank_exits_before_all_enter(self, nprocs):
        def main(ctx):
            # Stagger arrivals heavily.
            yield ctx.compute(100.0 * ctx.rank)
            entered = ctx.now
            yield from collectives.barrier(ctx.comm)
            return (entered, ctx.now)

        _rt, results = spmd(nprocs, main)
        last_entry = max(r[0] for r in results)
        first_exit = min(r[1] for r in results)
        assert first_exit >= last_entry

    def test_single_process_barrier_is_free(self):
        def main(ctx):
            yield from collectives.barrier(ctx.comm)
            return ctx.now

        _rt, results = spmd(1, main)
        assert results == [0.0]

    def test_barrier_scales_logarithmically(self):
        """Barrier time grows ~log2(N), not linearly (paper §3.1.2)."""

        def main(ctx):
            t0 = ctx.now
            yield from collectives.barrier(ctx.comm)
            return ctx.now - t0

        times = {}
        for n in (2, 4, 16):
            _rt, results = spmd(n, main)
            times[n] = max(results)
        # 16 procs has 4 rounds vs 1 round at 2 procs: ratio ~4, never ~8.
        assert times[16] < 6 * times[2]
        assert times[16] > times[4] > times[2]

    def test_repeated_barriers_do_not_cross_match(self):
        def main(ctx):
            stamps = []
            for _ in range(5):
                yield ctx.compute(10.0 * ctx.rank)
                yield from collectives.barrier(ctx.comm)
                stamps.append(ctx.now)
            return stamps

        _rt, results = spmd(5, main)
        # After each barrier all ranks agree on a lower bound: each barrier's
        # exit must come after every rank's entry into that same round.
        for round_idx in range(5):
            exits = [r[round_idx] for r in results]
            assert max(exits) - min(exits) < 50.0


class TestAllreduceSum:
    @pytest.mark.parametrize("nprocs", ALL_SIZES)
    def test_vector_sum_correct(self, nprocs):
        def main(ctx):
            vec = [ctx.rank, 1, ctx.rank * ctx.rank]
            result = yield from collectives.allreduce_sum(ctx.comm, vec)
            return result

        _rt, results = spmd(nprocs, main)
        ranks = range(nprocs)
        expected = [sum(ranks), nprocs, sum(r * r for r in ranks)]
        for result in results:
            assert result == expected

    def test_empty_vector(self):
        def main(ctx):
            result = yield from collectives.allreduce_sum(ctx.comm, [])
            return result

        _rt, results = spmd(4, main)
        assert results == [[], [], [], []]

    def test_input_not_mutated(self):
        def main(ctx):
            vec = [ctx.rank]
            yield from collectives.allreduce_sum(ctx.comm, vec)
            return vec

        _rt, results = spmd(4, main)
        assert results == [[0], [1], [2], [3]]

    def test_float_vectors(self):
        def main(ctx):
            result = yield from collectives.allreduce_sum(ctx.comm, [0.5])
            return result[0]

        _rt, results = spmd(8, main)
        assert all(r == pytest.approx(4.0) for r in results)

    @given(
        nprocs=st.integers(min_value=1, max_value=9),
        length=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_vectors(self, nprocs, length, seed):
        import random

        rng = random.Random(seed)
        vectors = [
            [rng.randint(-100, 100) for _ in range(length)] for _ in range(nprocs)
        ]

        def main(ctx):
            result = yield from collectives.allreduce_sum(ctx.comm, vectors[ctx.rank])
            return result

        _rt, results = spmd(nprocs, main)
        expected = [sum(v[i] for v in vectors) for i in range(length)]
        for result in results:
            assert result == expected


class TestAllgather:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 7, 8])
    def test_everyone_gets_everything(self, nprocs):
        def main(ctx):
            result = yield from collectives.allgather(ctx.comm, chr(65 + ctx.rank))
            return result

        _rt, results = spmd(nprocs, main)
        expected = [chr(65 + r) for r in range(nprocs)]
        assert all(r == expected for r in results)


class TestChaosTag:
    def test_epoch_field_wide_enough_for_node_crash(self):
        """Regression: the epoch field kept only 2 bits, so a node crash
        declaring 4+ hosted ranks during one barrier instance aliased the
        abandoned attempt's tags onto the restarted exchange (stale sums
        silently folded into the wrong accumulator)."""
        inst, round_no = 3, 2
        tags = [collectives._chaos_tag(inst, e, round_no) for e in range(256)]
        assert len(set(tags)) == 256

    def test_fields_do_not_collide(self):
        base = collectives._chaos_tag(5, 7, 9)
        assert collectives._chaos_tag(6, 7, 9) != base
        assert collectives._chaos_tag(5, 8, 9) != base
        assert collectives._chaos_tag(5, 7, 10) != base
        # Distinct instances never share a tag regardless of epoch/round.
        a = {collectives._chaos_tag(1, e, r) for e in range(256) for r in range(64)}
        b = {collectives._chaos_tag(2, e, r) for e in range(256) for r in range(64)}
        assert not (a & b)


class TestCrossPortParity:
    """One schedule, three ports: the blocking host port, the survivor
    port under a view that never changes, and the NIC frame port (one rank
    per node) move the same vectors along the same edges."""

    @staticmethod
    def _puts_then(ctx, collect):
        base = ctx.region.alloc(ctx.nprocs, initial=0)
        for peer in range(ctx.nprocs):
            if peer != ctx.rank:
                for _ in range(ctx.rank + 1):
                    yield from ctx.armci.put(GlobalAddress(peer, base), [1])
        result = yield from collect(ctx)
        return result

    @staticmethod
    def _host_run(nprocs, params, sum_fn, barrier_fn):
        """Per-stage ``(round, src, dst)`` edges and each rank's totals."""
        edges = {"sum": Counter(), "barrier": Counter()}

        def collect(ctx):
            comm, sent = ctx.comm, []
            plain_send = comm.send

            def recording_send(dst, payload, tag=0, payload_bytes=None):
                # Both tag layouts keep the round in the low six bits.
                sent.append((tag % 64, comm.rank, dst))
                return plain_send(dst, payload, tag=tag, payload_bytes=payload_bytes)

            comm.send = recording_send
            totals = yield from sum_fn(ctx)
            in_sum = len(sent)
            yield from barrier_fn(ctx)
            edges["sum"].update(sent[:in_sum])
            edges["barrier"].update(sent[in_sum:])
            return list(totals)

        rt = ClusterRuntime(nprocs, params=params)
        procs = rt.spawn(TestCrossPortParity._puts_then, collect)
        rt.run(until=rt.env.all_of(procs.values()))
        return edges, [procs[rank].value for rank in range(nprocs)]

    @pytest.mark.parametrize("nprocs", [3, 4, 6, 8])
    def test_same_edges_and_totals(self, nprocs, monkeypatch, nic_epoch_states):
        blocking = self._host_run(
            nprocs, myrinet2000(),
            lambda ctx: collectives.allreduce_sum(ctx.comm, ctx.armci.op_init),
            lambda ctx: collectives.barrier(ctx.comm),
        )

        # A membership service exists, but its one planned crash lies far
        # beyond the end of the run: the survivor view stays range(nprocs).
        stage3s = {}

        def survivor_sum(ctx):
            stage1, stage3s[ctx.rank] = collectives.barrier_stages(
                collectives.exchange_sync, ctx.comm, ctx.membership, 0,
                ctx.armci.op_init, None,
            )
            _target, totals = yield from stage1()
            return totals

        def survivor_barrier(ctx):
            epochs = yield from stage3s[ctx.rank]()
            assert epochs == {"view_epoch": 0, "result_epoch": 0}

        never = FaultPlan(crashes=(ProcessCrash(at_us=1e12, rank=1),), seed=7)
        resilient = self._host_run(
            nprocs, myrinet2000(faults=never), survivor_sum, survivor_barrier
        )

        nic_edges = {"s1": Counter(), "s3": Counter()}
        plain_send_frame = NicEngine._send_frame

        def recording_send_frame(self, epoch, phase, dst_node, values=None):
            stage, round_no = phase.split("-")
            nic_edges[stage][(int(round_no), self.node, dst_node)] += 1
            return plain_send_frame(self, epoch, phase, dst_node, values)

        monkeypatch.setattr(NicEngine, "_send_frame", recording_send_frame)
        rt = ClusterRuntime(nprocs, params=myrinet2000())
        rt.run_spmd(self._puts_then, lambda ctx: ctx.armci.barrier(algorithm="nic"))
        nic_totals = [state.totals for state in nic_epoch_states]

        # Rank s issued s + 1 puts to every other rank.
        sums = [sum(s + 1 for s in range(nprocs) if s != r) for r in range(nprocs)]
        assert blocking[1] == resilient[1] == nic_totals == [sums] * nprocs
        assert blocking[0] == resilient[0]
        assert blocking[0]["sum"] == nic_edges["s1"]
        assert blocking[0]["barrier"] == nic_edges["s3"]
        assert sum(blocking[0]["sum"].values()) > 0
