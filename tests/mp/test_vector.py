"""The stage-1 vector kinds against the list-of-numbers loop they replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp import collectives
from repro.mp.comm import _estimate_bytes
from repro.mp.vector import CountVector, OpCounts, ValueVector
from repro.net.params import myrinet2000
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress

LANE_MAX = 2**64 - 1
# Two of these still fit a lane; the edges are the values worth hitting.
counts = st.integers(0, 2**63 - 1) | st.sampled_from([0, 1, 2**63 - 1])


def rows(n, elements=counts):
    return st.lists(elements, min_size=n, max_size=n)


def loop_sum(vectors):
    """The reference: what ``[a + b for a, b in zip(...)]`` folded to."""
    return [sum(col) for col in zip(*vectors)]


class TestCountVector:
    @given(st.lists(st.integers(0, LANE_MAX), max_size=40))
    def test_round_trip_len_and_slots(self, values):
        vector = CountVector(values)
        assert vector.tolist() == values
        assert list(vector) == values
        assert len(vector) == len(values)
        assert [vector[i] for i in range(len(values))] == values
        assert [vector[i - len(values)] for i in range(len(values))] == values
        assert all(type(slot) is int for slot in vector.tolist())
        assert vector == values and vector == CountVector(values)

    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(rows(n), rows(n))))
    def test_add_is_the_elementwise_loop(self, pair):
        a, b = pair
        total = CountVector(a) + CountVector(b)
        assert total.tolist() == [x + y for x, y in zip(a, b)]
        assert (CountVector(a).tolist(), CountVector(b).tolist()) == (a, b)

    @pytest.mark.parametrize("n", [0, 1, 1024])
    @pytest.mark.parametrize("fill", [0, 2**63 - 1])
    def test_sizes_and_lane_edges(self, n, fill):
        vector = CountVector([fill] * n)
        doubled = vector + vector
        assert len(doubled) == n
        assert doubled.tolist() == [2 * fill] * n
        assert (vector + CountVector.zeros(n)) == vector

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.lists(rows(n, st.integers(0, 2**40)), min_size=1, max_size=n)
        )
    )
    def test_sum_of_vectors_is_the_column_sums(self, vectors):
        n = len(vectors[0])
        total = sum(map(CountVector, vectors), CountVector.zeros(n))
        assert total.tolist() == loop_sum(vectors)

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(1, LANE_MAX))
    def test_a_lane_that_overflows_is_an_error_not_a_carry(self, before, after, x):
        # Python ints grow where a lane cannot: refuse rather than let the
        # carry land in the neighbouring slot.
        a = CountVector([0] * before + [x] + [0] * after)
        b = CountVector([7] * before + [LANE_MAX - x + 1] + [7] * after)
        with pytest.raises(OverflowError, match="overflow 64 bits"):
            a + b
        fits = a + CountVector([0] * before + [LANE_MAX - x] + [0] * after)
        assert fits[before] == LANE_MAX

    def test_the_overflow_test_is_a_bound_on_the_largest_slots(self):
        # Constant-time and conservative: it adds the operands' largest slots
        # wherever they sit, so it may refuse a sum that would have fitted
        # but never lets one through that does not.
        with pytest.raises(OverflowError):
            CountVector([2**63, 0]) + CountVector([0, 2**63])
        assert (CountVector([2**63 - 1, 0]) + CountVector([0, 2**63])).tolist() == [
            2**63 - 1, 2**63
        ]

    @pytest.mark.parametrize("bad", [[-1], [1, 2**64], [0, -(2**70)]])
    def test_out_of_range_input_is_rejected(self, bad):
        with pytest.raises((OverflowError, ValueError)) as excinfo:
            CountVector(bad)
        assert "\n" not in str(excinfo.value)

    def test_non_integer_input_is_rejected(self):
        with pytest.raises(TypeError):
            CountVector([1.5])

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="3 and 2 slots") as excinfo:
            CountVector([1, 2, 3]) + CountVector([1, 2])
        assert "\n" not in str(excinfo.value)

    def test_only_adds_to_its_own_kind(self):
        for other in ([1, 2], (1, 2), ValueVector([1, 2]), 3):
            with pytest.raises(TypeError):
                CountVector([1, 2]) + other

    def test_index_out_of_range(self):
        vector = CountVector([5, 6])
        for i in (2, -3):
            with pytest.raises(IndexError):
                vector[i]
        with pytest.raises(IndexError):
            CountVector()[0]

    def test_is_immutable(self):
        vector = CountVector([1, 2])
        with pytest.raises(TypeError):
            vector[0] = 9
        with pytest.raises(AttributeError):
            vector.extra = 1
        with pytest.raises(TypeError):
            hash(vector)

    def test_repr_shows_the_slots(self):
        assert repr(CountVector([3, 0, 4])) == "CountVector([3, 0, 4])"


@st.composite
def touched_counts(draw, values=counts):
    """``(n, {slot: value})``: from one touched slot to every one of them."""
    n = draw(st.integers(1, 300))
    most = draw(st.sampled_from([1, 4, 16, 17, n]))
    slots = st.integers(0, n - 1)
    return n, draw(st.dictionaries(slots, values, max_size=min(most, n)))


def counted(n, assigned):
    """The pair under comparison: an ``OpCounts`` and the list it replaced,
    each slot reached half by ``=`` and half by ``+=``."""
    sparse, dense = OpCounts(n), [0] * n
    for target in (sparse, dense):
        for slot, value in assigned.items():
            target[slot] = value // 2
            target[slot] += value - value // 2
    return sparse, dense


class TestOpCounts:
    @given(touched_counts())
    def test_reads_as_the_list_it_replaced(self, case):
        n, assigned = case
        sparse, dense = counted(n, assigned)
        assert len(sparse) == n and len(sparse.items()) == len(assigned)
        assert list(sparse) == sparse.tolist() == dense
        assert sparse == dense and dense == sparse and not sparse != dense
        assert sparse != dense + [0] and sparse != [1] + dense[1:] + [1]
        assert [sparse[i] for i in range(-n, n)] == [dense[i] for i in range(-n, n)]
        assert all(type(sparse[i]) is int for i in range(n))
        assert repr(sparse) == f"OpCounts({dense})"
        assert len(sparse.items()) == len(assigned)  # reading stores nothing

    @given(touched_counts())
    def test_snapshot_is_the_snapshot_of_the_list(self, case):
        n, assigned = case
        sparse, dense = counted(n, assigned)
        packed, reference = CountVector(sparse), CountVector(dense)
        assert packed == reference and packed.tolist() == dense
        assert packed._bound == reference._bound
        assert CountVector(sparse) == CountVector(sparse.tolist())
        # A snapshot: counting on does not reach it.
        sparse[0] += 1
        assert packed.tolist() == dense

    @given(touched_counts(st.integers(0, 2**40)), touched_counts(st.integers(0, 2**40)))
    def test_sums_agree_slot_for_slot(self, a, b):
        n = min(a[0], b[0])
        (sparse_a, dense_a), (sparse_b, dense_b) = (
            counted(n, {slot: v for slot, v in assigned.items() if slot < n})
            for _n, assigned in (a, b)
        )
        total = CountVector(sparse_a) + CountVector(sparse_b)
        assert total.tolist() == [x + y for x, y in zip(dense_a, dense_b)]
        assert total._bound == (CountVector(dense_a) + CountVector(dense_b))._bound

    @given(touched_counts(), st.sampled_from([-1, 2**64, -(2**70), 1.5]), st.data())
    def test_a_value_no_lane_holds_is_refused_as_for_a_list(self, case, bad, data):
        n, assigned = case
        sparse, dense = counted(n, assigned)
        slot = data.draw(st.integers(0, n - 1))
        sparse[slot] = dense[slot] = bad
        with pytest.raises(Exception) as from_list:
            CountVector(dense)
        with pytest.raises(type(from_list.value)) as from_counts:
            CountVector(sparse)
        assert type(from_counts.value) is type(from_list.value)
        assert type(from_list.value) in (OverflowError, TypeError)

    @given(st.integers(1, 300))
    def test_indices_a_list_refuses_are_refused(self, n):
        sparse = OpCounts(n)
        sparse[n - 1] += 2
        assert sparse[-1] == 2 and sparse[-n] == (2 if n == 1 else 0)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                sparse[i]
            with pytest.raises(IndexError):
                sparse[i] += 1
        assert sparse.tolist() == [0] * (n - 1) + [2]

    @pytest.mark.parametrize("slot", [-1, 5, -6])
    def test_a_slot_is_written_by_its_index_in_range(self, slot):
        # ``+=`` refuses on the spot (above); a plain store of any other key
        # cannot be stopped without a Python-level ``__setitem__`` on the
        # put path, so the next read-out refuses it instead.
        sparse = OpCounts(5)
        sparse[slot] = 1
        with pytest.raises(IndexError):
            CountVector(sparse)
        with pytest.raises(IndexError):
            sparse.tolist()

    @pytest.mark.parametrize("nprocs", [4, 7])
    def test_generic_allreduce_takes_it_as_it_took_the_list(self, nprocs):
        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            for peer in range(ctx.rank):
                yield from ctx.armci.put(GlobalAddress(peer, base), [1])
            assert type(ctx.armci.op_init) is OpCounts
            total = yield from collectives.allreduce_sum(ctx.comm, ctx.armci.op_init)
            return total

        rt = ClusterRuntime(nprocs, params=myrinet2000())
        expected = [nprocs - 1 - rank for rank in range(nprocs)]
        assert rt.run_spmd(main) == [expected] * nprocs


class TestValueVector:
    @given(
        st.integers(0, 20).flatmap(
            lambda n: st.tuples(
                rows(n, st.floats(-1e6, 1e6)), rows(n, st.integers(-50, 50))
            )
        )
    )
    @settings(max_examples=50)
    def test_add_is_the_elementwise_loop(self, pair):
        a, b = pair
        total = ValueVector(a) + ValueVector(b)
        assert type(total) is ValueVector
        assert total.tolist() == [x + y for x, y in zip(a, b)]
        assert len(total) == len(a)

    def test_mismatches_are_rejected_not_concatenated(self):
        with pytest.raises(ValueError, match="2 and 1 slots"):
            ValueVector([1, 2]) + ValueVector([1])
        for other in ((1, 2), [1, 2], CountVector([1, 2])):
            with pytest.raises(TypeError):
                ValueVector([1, 2]) + other


class TestWireSize:
    """A send that names no ``payload_bytes`` still prices 8 bytes per slot."""

    @pytest.mark.parametrize("kind", [CountVector, ValueVector, list])
    def test_estimate_matches_a_list_of_the_same_length(self, kind):
        assert _estimate_bytes(kind(range(1024))) == 8 * 1024
        assert _estimate_bytes(kind([7])) == 8
