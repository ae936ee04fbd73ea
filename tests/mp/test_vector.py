"""The stage-1 vector kinds against the list-of-numbers loop they replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp.comm import _estimate_bytes
from repro.mp.vector import CountVector, ValueVector

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
