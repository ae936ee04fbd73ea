"""Global Arrays: block-distributed 2-D arrays over ARMCI.

A minimal Global-Arrays-style layer sufficient for the paper's evaluation
workload and the examples: collective creation, one-sided section
``put``/``get`` decomposed into per-owner ARMCI vector transfers,
and :meth:`GlobalArray.sync` — the ``GA_Sync()`` the paper modified, with
selectable ``current`` (AllFence + message-passing barrier) and ``new``
(combined ``ARMCI_Barrier``) implementations.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Optional, Tuple

from .distribution import BlockDistribution, Section, default_pgrid

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["GlobalArray", "PreparedPut", "SYNC_MODES"]


@cache
def _numpy():
    """numpy, loaded by the first call that builds or returns an array.

    Importing :mod:`repro.ga` — and with it every experiment module and the
    command line — stays free of numpy's ~12 MiB and ~0.13 s; a program pays
    them when it first moves array data.
    """
    import numpy

    return numpy


#: ``current``: original GA_Sync (linear AllFence, then MP barrier).
#: ``new``: the paper's combined operation.  ``auto``: §3.1.2's suggestion.
SYNC_MODES = ("current", "new", "auto")


class GlobalArray:
    """One rank's handle on a block-distributed 2-D array of doubles."""

    def __init__(
        self,
        ctx,
        name: str,
        shape: Tuple[int, int],
        pgrid: Optional[Tuple[int, int]] = None,
    ):
        if pgrid is None:
            pgrid = default_pgrid(ctx.nprocs)
        if pgrid[0] * pgrid[1] != ctx.nprocs:
            raise ValueError(
                f"process grid {pgrid} does not cover {ctx.nprocs} processes"
            )
        self.ctx = ctx
        self.name = name
        self.dist = BlockDistribution(shape, pgrid)
        self.shape = self.dist.shape
        # Collective-style creation: every rank allocates its own block in
        # its region under a stable name (the moral ARMCI_Malloc).
        my_block = self.dist.block(ctx.rank)
        self.base_addr = ctx.region.alloc_named(
            f"ga:{name}", max(my_block.cells, 1), initial=0.0
        )
        self._base_by_rank = {ctx.rank: self.base_addr}
        # Per-section transfer plans (see _plan).  Sections repeat every
        # iteration in the paper's workloads; the decomposition is a pure
        # function of the section, so caching it cannot change what gets
        # transferred.
        self._plan_cache: dict = {}

    def __repr__(self) -> str:
        return f"<GlobalArray {self.name!r} {self.shape} pgrid={self.dist.pgrid}>"

    def _base_of(self, rank: int) -> int:
        """Base address of ``rank``'s block (same named allocation)."""
        base = self._base_by_rank.get(rank)
        if base is None:
            blk = self.dist.block(rank)
            base = self.ctx.regions[rank].alloc_named(
                f"ga:{self.name}", max(blk.cells, 1), initial=0.0
            )
            self._base_by_rank[rank] = base
        return base

    # -- one-sided section transfers --------------------------------------------

    def put(self, section: Section, data):
        """Non-blocking one-sided write of ``data`` into ``section``.

        ``data`` is array-like of shape ``(r1-r0, c1-c0)``.  One ARMCI
        vector put per owning process.  Completion is observed via
        :meth:`sync` (or an explicit fence).
        """
        for rank, segments in self._prepared_transfers(section, data):
            yield from self.ctx.armci.put_segments(rank, segments)

    def prepare_put(self, section: Section, data) -> "PreparedPut":
        """Precompute a repeatable put of ``data`` into ``section``.

        Iterative workloads (the Figure 7 loop, stencil sweeps) re-issue
        the identical transfer every iteration; a :class:`PreparedPut`
        fronts the decomposition, slicing, and float conversion once so
        each :meth:`PreparedPut.issue` only pays the transport.  The
        simulated traffic is exactly that of :meth:`put` with the same
        arguments.
        """
        return PreparedPut(self, section, data)

    def _plan(self, section: Section):
        """A section's per-owner runs, resolved to absolute cells (cached).

        Entries are ``(rank, [(addr, local_row, local_c0, local_c1)])`` with
        the data indices pre-shifted into section-local coordinates; every
        section transfer — put and get — walks this one plan.
        """
        section = tuple(section)
        plan = self._plan_cache.get(section)
        if plan is None:
            r0, _r1, c0, _c1 = section
            plan = self._plan_cache[section] = []
            for rank, runs in self.dist.decompose(section).items():
                base = self._base_of(rank)
                plan.append(
                    (
                        rank,
                        [
                            (base + addr, i - r0, j0 - c0, j1 - c0)
                            for addr, _count, (i, _i1, j0, j1) in runs
                        ],
                    )
                )
        return plan

    def _prepared_transfers(self, section: Section, data):
        """The per-owner ``(rank, segments)`` list a put of ``data`` ships."""
        plan = self._plan(section)
        r0, r1, c0, c1 = section
        data = _numpy().asarray(data, dtype=float)
        expected = (r1 - r0, c1 - c0)
        if data.shape != expected:
            raise ValueError(f"data shape {data.shape} != section shape {expected}")
        return [
            (
                rank,
                [(addr, data[li, lj0:lj1].tolist()) for addr, li, lj0, lj1 in runs],
            )
            for rank, runs in plan
        ]

    def get(self, section: Section):
        """Blocking one-sided read of ``section``; returns a numpy array."""
        plan = self._plan(section)
        r0, r1, c0, c1 = section
        out = _numpy().zeros((r1 - r0, c1 - c0), dtype=float)
        for rank, runs in plan:
            values = yield from self.ctx.armci.get_segments(
                rank, [(addr, lj1 - lj0) for addr, _li, lj0, lj1 in runs]
            )
            pos = 0
            for _addr, li, lj0, lj1 in runs:
                out[li, lj0:lj1] = values[pos : pos + lj1 - lj0]
                pos += lj1 - lj0
        return out

    # -- synchronization -----------------------------------------------------------

    def sync(self, mode: str = "new"):
        """GA_Sync(): complete all outstanding operations + barrier.

        ``mode="current"`` is the original implementation (linear
        ``ARMCI_AllFence`` followed by the message-passing barrier);
        ``mode="new"`` is the paper's combined ``ARMCI_Barrier``;
        ``mode="auto"`` is ``ARMCI_Barrier("auto")``: the cheapest algorithm
        by its priced message patterns (§3.1.2's crossover, computed
        rather than thresholded).
        """
        from .sync import ga_sync  # local import: sync also usable standalone

        yield from ga_sync(self.ctx, mode)

    # -- local views -----------------------------------------------------------------

    def my_block_section(self) -> Section:
        blk = self.dist.block(self.ctx.rank)
        return (blk.row0, blk.row1, blk.col0, blk.col1)

    def local_block(self) -> np.ndarray:
        """Copy of this rank's own block (direct memory read, no messages)."""
        blk = self.dist.block(self.ctx.rank)
        values = self.ctx.region.read_many(self.base_addr, blk.cells)
        return _numpy().asarray(values, dtype=float).reshape(blk.nrows, blk.ncols)

class PreparedPut:
    """A reusable one-sided put: decomposition and data conversion done once.

    Built by :meth:`GlobalArray.prepare_put`.  :meth:`issue` ships the same
    per-owner vector transfers as ``GlobalArray.put(section, data)`` —
    one ARMCI vector put per owning process, identical addresses and
    values — so replacing a put inside a loop with a prepared one cannot
    change simulated results.  The prepared segment lists are shipped
    read-only (the server copies cell values out of them); do not mutate
    the snapshot between issues.
    """

    __slots__ = ("ga", "section", "transfers")

    def __init__(self, ga: GlobalArray, section: Section, data):
        self.ga = ga
        self.section = tuple(section)
        self.transfers = ga._prepared_transfers(self.section, data)

    def __repr__(self) -> str:
        return f"<PreparedPut {self.ga.name!r} {self.section}>"

    def issue(self):
        """Sub-generator: perform the prepared put (repeatable)."""
        armci = self.ga.ctx.armci
        for rank, segments in self.transfers:
            yield from armci.put_segments(rank, segments)
