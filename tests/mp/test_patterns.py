"""The three message patterns, driven without a simulator.

Every member of a pattern runs against an in-memory recording port: ``send``
files the vector under ``(src, dst, round)`` and returns at once, ``recv``
yields until a matching vector is filed.  No ``Environment``, no ``Comm``:
what is checked is the schedule itself — who sends what to whom in which
round — which is the same for every port the patterns run over.  The last
class checks the pricing port, the one production port that runs without a
simulator either.

Each class runs with the packed stage-1 counts; its ``...Generic`` subclass
reruns every case with the generic vector kind (floats), since the patterns
must not care which one they carry.
"""

import math
from collections import Counter, deque
from types import SimpleNamespace

import pytest

from repro.armci.barrier import ALGORITHMS, estimate_us
from repro.mp.collectives import (
    PricePort,
    dissemination_pattern,
    sum_pattern,
    tree_pattern,
)
from repro.mp.comm import ANY_SOURCE
from repro.mp.vector import CountVector, ValueVector
from repro.net.params import myrinet2000
from repro.net.topology import Topology
from repro.topo import two_level

SIZES = range(1, 41)
RADICES = range(2, 6)


class RecordingPort:
    """Mailboxes keyed ``(src, dst, round)`` plus a log of every send."""

    def __init__(self):
        self.queued = {}
        self.sent = []

    def port(self, me):
        def send(dst, vector, round_no):
            self.sent.append((round_no, me, dst))
            self.queued.setdefault((me, dst, round_no), deque()).append(vector)
            return ()

        def recv(src, round_no):
            box = self.queued.setdefault((src, me, round_no), deque())
            while not box:
                yield
            return SimpleNamespace(payload=box.popleft())

        return send, recv

    def undelivered(self):
        return {key: list(box) for key, box in self.queued.items() if box}


def run_members(pattern, ranks, vectors, *extra):
    """Run ``pattern`` for every member to completion, round-robin.

    Returns ``(results by member, the RecordingPort)``; fails on deadlock.
    """
    rec = RecordingPort()
    members = {
        v: pattern(v, ranks, *rec.port(ranks[v]), vectors[v], *extra)
        for v in range(len(ranks))
    }
    results = {}
    while members:
        sent_before, left_before = len(rec.sent), len(members)
        for v, gen in list(members.items()):
            try:
                next(gen)
            except StopIteration as stop:
                results[v] = stop.value
                del members[v]
        # A sweep in which nobody sent and nobody finished can never unblock.
        assert (len(rec.sent), len(members)) != (sent_before, left_before), (
            f"deadlock: members {sorted(members)} blocked"
        )
    return results, rec


def spread(n):
    """An agreed rank list that is not ``range(n)``, to exercise the mapping."""
    return [7 * i + 3 for i in range(n)]


def halves(row):
    """The generic kind, on floats whose sums are exact in any order."""
    return ValueVector(x / 2 for x in row)


def vectors_for(n, kind):
    return [kind([v + 1, 100 * v, 1]) for v in range(n)]


def elementwise_sum(vectors):
    return [sum(col) for col in zip(*vectors)]


def all_hold(results, expected):
    return all(result.tolist() == expected for result in results.values())


def rounds_used(rec):
    return len({round_no for round_no, _src, _dst in rec.sent})


class TestSumPattern:
    kind = CountVector

    @pytest.mark.parametrize("n", SIZES)
    def test_every_member_gets_the_full_sum(self, n):
        vectors = vectors_for(n, self.kind)
        results, rec = run_members(sum_pattern, spread(n), vectors)
        assert all_hold(results, elementwise_sum(vectors))
        assert rec.undelivered() == {}

    @pytest.mark.parametrize("n", SIZES)
    def test_round_count(self, n):
        _results, rec = run_members(sum_pattern, range(n), vectors_for(n, self.kind))
        log2 = n.bit_length() - 1
        # Fold, core, copy-back: two rounds more than the power-of-two core.
        assert rounds_used(rec) == (log2 if n == 1 << log2 else log2 + 2)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_power_of_two_is_the_papers_binary_exchange(self, n):
        _results, rec = run_members(sum_pattern, range(n), vectors_for(n, self.kind))
        assert Counter(rec.sent) == Counter(
            (r, v, v ^ (1 << r)) for r in range(n.bit_length() - 1) for v in range(n)
        )

    def test_inputs_are_not_modified(self):
        vectors = vectors_for(6, self.kind)
        run_members(sum_pattern, range(6), vectors)
        assert vectors == vectors_for(6, self.kind)


class TestDisseminationPattern:
    kind = CountVector

    @pytest.mark.parametrize("n", SIZES)
    def test_barrier_rounds_and_edges(self, n):
        ranks = spread(n)
        results, rec = run_members(dissemination_pattern, ranks, [None] * n)
        rounds = math.ceil(math.log2(n)) if n > 1 else 0
        assert rounds_used(rec) == rounds
        assert Counter(rec.sent) == Counter(
            (r, ranks[v], ranks[(v + (1 << r)) % n])
            for r in range(rounds) for v in range(n)
        )
        assert rec.undelivered() == {}
        assert set(results.values()) == {None}

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    def test_with_a_vector_it_sums_for_powers_of_two(self, n):
        vectors = vectors_for(n, self.kind)
        results, _rec = run_members(dissemination_pattern, range(n), vectors)
        assert all_hold(results, elementwise_sum(vectors))


class TestTreePattern:
    kind = CountVector

    @pytest.mark.parametrize("radix", RADICES)
    @pytest.mark.parametrize("n", SIZES)
    def test_sum_and_edges(self, n, radix):
        vectors = vectors_for(n, self.kind)
        results, rec = run_members(tree_pattern, range(n), vectors, radix)
        assert all_hold(results, elementwise_sum(vectors))
        assert rec.undelivered() == {}
        # One up edge (round 0) and one down edge (round 1) per non-root
        # member, each joining i to (i - 1) // radix.
        assert Counter(rec.sent) == Counter(
            edge
            for i in range(1, n)
            for edge in ((0, i, (i - 1) // radix), (1, (i - 1) // radix, i))
        )

    @pytest.mark.parametrize("n", SIZES)
    def test_radix_two_is_the_nic_heap_order(self, n):
        _results, rec = run_members(tree_pattern, range(n), [None] * n, 2)
        children = {}
        for round_no, src, dst in rec.sent:
            if round_no == 1:
                children.setdefault(src, []).append(dst)
        for i in range(n):
            assert children.get(i, []) == [
                c for c in (2 * i + 1, 2 * i + 2) if c < n
            ]

    @pytest.mark.parametrize("radix", RADICES)
    def test_zero_byte_pass_has_the_same_edges(self, radix):
        n = 23
        ranks = spread(n)
        _r, with_vector = run_members(tree_pattern, ranks, vectors_for(n, self.kind), radix)
        results, without = run_members(tree_pattern, ranks, [None] * n, radix)
        assert Counter(without.sent) == Counter(with_vector.sent)
        assert set(results.values()) == {None}


class TestSumPatternGeneric(TestSumPattern):
    kind = staticmethod(halves)


class TestDisseminationPatternGeneric(TestDisseminationPattern):
    kind = staticmethod(halves)


class TestTreePatternGeneric(TestTreePattern):
    kind = staticmethod(halves)


def price_pattern(pattern, nprocs, vectors, params=None, procs_per_node=1):
    """Run ``pattern`` for every rank over one pricing port; the port."""
    port = PricePort(params or myrinet2000(), Topology(nprocs, procs_per_node))
    ranks = range(nprocs)
    port.run({v: pattern(v, ranks, *port.port(v), vectors[v]) for v in ranks})
    return port


class TestPricePort:
    def test_constructs_no_environment(self, monkeypatch):
        from repro.sim import core

        def refuse(*_args, **_kwargs):
            raise AssertionError("the pricing port built an Environment")

        monkeypatch.setattr(core.Environment, "__init__", refuse)
        params = myrinet2000(
            hierarchy=two_level(4), nic_offload=True, nic_algorithm="tree"
        )
        topology = Topology(24, procs_per_node=4)
        for algorithm in [a for a in ALGORITHMS if a != "auto"]:
            assert estimate_us(params, topology, algorithm, dirty=1) > 0.0

    def test_deterministic(self):
        vectors = [CountVector.zeros(12)] * 12
        params = myrinet2000(hierarchy=two_level(2, uplink_contention=2.0))
        first = price_pattern(sum_pattern, 12, vectors, params, procs_per_node=3)
        again = price_pattern(sum_pattern, 12, vectors, params, procs_per_node=3)
        assert first.clock == again.clock
        # Four extras fold in, eight core members run three rounds, four
        # copies go back out.
        assert first.sends == again.sends == 4 + 8 * 3 + 4

    def test_a_schedule_that_never_unblocks_raises(self):
        port = PricePort(myrinet2000(), Topology(3))

        def waits_for(me, src):
            msg = yield from port.port(me)[1](src, 0)
            return msg

        members = {0: waits_for(0, 1), 1: waits_for(1, 0), 2: iter(())}
        with pytest.raises(RuntimeError, match=r"members \[0, 1\] can never unblock"):
            port.run(members)

    def test_any_source_takes_the_earliest_arrival(self):
        port = PricePort(myrinet2000(), Topology(3, procs_per_node=3))
        comm = {rank: port.comm(rank) for rank in range(3)}
        got = []

        def leader():
            for _ in range(2):
                msg = yield from comm[0].recv(ANY_SOURCE, tag=5)
                got.append(msg.src)

        def late():  # files first, arrives last
            port.clock[1] += 10.0
            yield from comm[1].send(0, None, tag=5, payload_bytes=0)

        def early():
            yield from comm[2].send(0, None, tag=5, payload_bytes=0)

        port.run({0: leader(), 1: late(), 2: early()})
        assert got == [2, 1]

    @pytest.mark.parametrize("nprocs", [2, 4, 8, 16, 32])
    def test_flat_binary_exchange_prices_log2_n_equal_rounds(self, nprocs):
        vectors = [CountVector.zeros(64)] * nprocs
        one_round = price_pattern(sum_pattern, 2, vectors).clock
        port = price_pattern(sum_pattern, nprocs, vectors)
        rounds = nprocs.bit_length() - 1
        assert port.clock[0] == pytest.approx(rounds * one_round[0])
        assert len({round(t, 9) for t in port.clock}) == 1
