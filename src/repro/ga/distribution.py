"""2-D block distribution for Global Arrays.

Global Arrays distributes a 2-D array over a logical process grid in
contiguous blocks ("distributed uniformly over the set of processes", as in
the paper's Figure 7 workload).  This module computes block ownership and
decomposes rectangular sections into per-owner runs of local addresses,
which the ARMCI layer then moves with single vector put/get operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

__all__ = ["BlockDistribution", "Section", "default_pgrid"]

#: A rectangular section [row0, row1) x [col0, col1).
Section = Tuple[int, int, int, int]


def default_pgrid(nprocs: int) -> Tuple[int, int]:
    """Near-square process grid factorization of ``nprocs``.

    Returns ``(pr, pc)`` with ``pr * pc == nprocs`` and ``pr <= pc``,
    ``pr`` the largest divisor not exceeding ``sqrt(nprocs)``.
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    pr = int(math.isqrt(nprocs))
    while nprocs % pr:
        pr -= 1
    return pr, nprocs // pr


@dataclass(frozen=True)
class _Block:
    row0: int
    row1: int
    col0: int
    col1: int

    @property
    def nrows(self) -> int:
        return self.row1 - self.row0

    @property
    def ncols(self) -> int:
        return self.col1 - self.col0

    @property
    def cells(self) -> int:
        return self.nrows * self.ncols


class BlockDistribution:
    """Block ownership map for an ``rows x cols`` array on a ``pr x pc`` grid.

    Rank ``r`` owns grid coordinates ``(r // pc, r % pc)`` (row-major rank
    ordering), and its block is stored row-major in its region.
    """

    def __init__(self, shape: Tuple[int, int], pgrid: Tuple[int, int]):
        rows, cols = shape
        pr, pc = pgrid
        if rows < 1 or cols < 1:
            raise ValueError(f"invalid shape {shape}")
        if pr < 1 or pc < 1:
            raise ValueError(f"invalid pgrid {pgrid}")
        if pr > rows or pc > cols:
            raise ValueError(
                f"process grid {pgrid} larger than array shape {shape}"
            )
        self.shape = (rows, cols)
        self.pgrid = (pr, pc)
        self.nprocs = pr * pc
        self._row_bounds = _split(rows, pr)
        self._col_bounds = _split(cols, pc)

    def __repr__(self) -> str:
        return f"<BlockDistribution {self.shape} over {self.pgrid}>"

    # -- ownership ------------------------------------------------------------

    def grid_coords(self, rank: int) -> Tuple[int, int]:
        self._check_rank(rank)
        pc = self.pgrid[1]
        return rank // pc, rank % pc

    def block(self, rank: int) -> _Block:
        """The block owned by ``rank`` as (row0, row1, col0, col1)."""
        pi, pj = self.grid_coords(rank)
        r0, r1 = self._row_bounds[pi], self._row_bounds[pi + 1]
        c0, c1 = self._col_bounds[pj], self._col_bounds[pj + 1]
        return _Block(r0, r1, c0, c1)

    # -- section decomposition ---------------------------------------------------

    def check_section(self, section: Section) -> Section:
        r0, r1, c0, c1 = section
        rows, cols = self.shape
        if not (0 <= r0 <= r1 <= rows and 0 <= c0 <= c1 <= cols):
            raise IndexError(f"section {section} outside array {self.shape}")
        return section

    def decompose(self, section: Section) -> Dict[int, List[Tuple[int, int, Section]]]:
        """Split a section into per-owner row runs.

        Returns ``{rank: [(local_addr, count, sub_section_row), ...]}`` where
        each entry is one contiguous run in the owner's block (one row of
        the intersection), and ``sub_section_row`` is its global
        ``(i, i+1, j0, j1)`` rectangle — used by callers to slice the data
        they are moving.
        """
        r0, r1, c0, c1 = self.check_section(section)
        result: Dict[int, List[Tuple[int, int, Section]]] = {}
        if r0 == r1 or c0 == c1:
            return result
        pr, pc = self.pgrid
        for pi in range(pr):
            br0, br1 = self._row_bounds[pi], self._row_bounds[pi + 1]
            ir0, ir1 = max(r0, br0), min(r1, br1)
            if ir0 >= ir1:
                continue
            for pj in range(pc):
                bc0, bc1 = self._col_bounds[pj], self._col_bounds[pj + 1]
                jc0, jc1 = max(c0, bc0), min(c1, bc1)
                if jc0 >= jc1:
                    continue
                rank = pi * pc + pj
                ncols = bc1 - bc0
                runs = result.setdefault(rank, [])
                for i in range(ir0, ir1):
                    addr = (i - br0) * ncols + (jc0 - bc0)
                    runs.append((addr, jc1 - jc0, (i, i + 1, jc0, jc1)))
        return result

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nprocs):
            raise ValueError(f"rank {rank} out of range [0, {self.nprocs})")


def _split(n: int, parts: int) -> List[int]:
    """Bounds of a near-equal split of ``range(n)`` into ``parts`` pieces."""
    base, extra = divmod(n, parts)
    bounds = [0]
    for p in range(parts):
        bounds.append(bounds[-1] + base + (1 if p < extra else 0))
    return bounds

