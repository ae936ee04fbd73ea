"""Unit and property tests for the 2-D block distribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga.distribution import BlockDistribution, default_pgrid


class TestDefaultPgrid:
    @pytest.mark.parametrize(
        "nprocs,expected",
        [(1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (6, (2, 3)), (8, (2, 4)),
         (9, (3, 3)), (12, (3, 4)), (16, (4, 4)), (7, (1, 7))],
    )
    def test_near_square_factorization(self, nprocs, expected):
        assert default_pgrid(nprocs) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_pgrid(0)


class TestBlocks:
    def test_even_split(self):
        dist = BlockDistribution((8, 8), (2, 2))
        blk = dist.block(0)
        assert (blk.row0, blk.row1, blk.col0, blk.col1) == (0, 4, 0, 4)
        blk = dist.block(3)
        assert (blk.row0, blk.row1, blk.col0, blk.col1) == (4, 8, 4, 8)

    def test_uneven_split_front_loaded(self):
        dist = BlockDistribution((5, 5), (2, 2))
        assert dist.block(0).nrows == 3  # extra row to early blocks
        assert dist.block(2).nrows == 2

    def test_blocks_partition_the_array(self):
        dist = BlockDistribution((7, 9), (2, 3))
        cells = set()
        for rank in range(6):
            blk = dist.block(rank)
            for i in range(blk.row0, blk.row1):
                for j in range(blk.col0, blk.col1):
                    assert (i, j) not in cells
                    cells.add((i, j))
        assert len(cells) == 63

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockDistribution((0, 4), (1, 1))
        with pytest.raises(ValueError):
            BlockDistribution((4, 4), (0, 2))
        with pytest.raises(ValueError):
            BlockDistribution((2, 2), (3, 1))  # more rows of procs than rows


class TestDecompose:
    def test_section_within_one_block(self):
        dist = BlockDistribution((8, 8), (2, 2))
        parts = dist.decompose((1, 3, 1, 3))
        assert list(parts) == [0]
        runs = parts[0]
        assert [(addr, count) for addr, count, _sec in runs] == [(5, 2), (9, 2)]

    def test_empty_section(self):
        dist = BlockDistribution((8, 8), (2, 2))
        assert dist.decompose((2, 2, 0, 8)) == {}
        assert dist.decompose((0, 8, 3, 3)) == {}

    def test_out_of_bounds_section(self):
        dist = BlockDistribution((8, 8), (2, 2))
        with pytest.raises(IndexError):
            dist.decompose((0, 9, 0, 1))

    def test_full_array_touches_all_ranks(self):
        dist = BlockDistribution((8, 8), (2, 2))
        parts = dist.decompose((0, 8, 0, 8))
        assert sorted(parts) == [0, 1, 2, 3]

    @given(
        rows=st.integers(2, 12),
        cols=st.integers(2, 12),
        pr=st.integers(1, 3),
        pc=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_decomposition_is_exact_partition(self, rows, cols, pr, pc, data):
        """Every decomposed run covers each section cell exactly once, with
        the correct owner and a valid local offset."""
        if pr > rows or pc > cols:
            return
        dist = BlockDistribution((rows, cols), (pr, pc))
        r0 = data.draw(st.integers(0, rows))
        r1 = data.draw(st.integers(r0, rows))
        c0 = data.draw(st.integers(0, cols))
        c1 = data.draw(st.integers(c0, cols))
        covered = {}
        for rank, runs in dist.decompose((r0, r1, c0, c1)).items():
            for addr, count, (i, i1, j0, j1) in runs:
                assert i1 == i + 1 and count == j1 - j0 > 0
                blk = dist.block(rank)
                for off, j in enumerate(range(j0, j1)):
                    assert blk.row0 <= i < blk.row1 and blk.col0 <= j < blk.col1
                    assert (i - blk.row0) * blk.ncols + (j - blk.col0) == addr + off
                    key = (i, j)
                    assert key not in covered
                    covered[key] = rank
        expected = {(i, j) for i in range(r0, r1) for j in range(c0, c1)}
        assert set(covered) == expected
