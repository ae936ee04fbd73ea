"""Ghost (halo) cells for Global Arrays.

Global Arrays 3.x added *ghost cells*: each process's local block is
surrounded by a halo of copies of its neighbors' boundary elements, and a
collective ``update_ghosts`` refreshes every halo with one-sided puts —
the canonical way GA applications run stencils without hand-written halo
bookkeeping.

:class:`GhostArray` wraps a :class:`~repro.ga.array.GlobalArray` with a
halo of configurable width.  The ghost region lives in each owner's region
right after the block; ``update_ghosts()`` has every process *push* its
boundary strips into its neighbors' halos (one vector put per neighbor)
followed by a GA_Sync — so its cost profile is exactly the paper's
fence+barrier territory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .array import GlobalArray, _numpy

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["GhostArray"]


class GhostArray:
    """A block-distributed 2-D array with ghost-cell halos.

    Boundary semantics: halos outside the global array stay at
    ``boundary`` (default 0.0) — fixed-value (Dirichlet) borders.
    """

    def __init__(
        self,
        ctx,
        name: str,
        shape: Tuple[int, int],
        width: int = 1,
        boundary: float = 0.0,
        pgrid: Optional[Tuple[int, int]] = None,
    ):
        if width < 1:
            raise ValueError(f"ghost width must be >= 1, got {width}")
        self.ctx = ctx
        self.name = name
        self.width = width
        self.boundary = float(boundary)
        self.ga = GlobalArray(ctx, f"{name}:core", shape, pgrid=pgrid)
        self.dist = self.ga.dist
        self.shape = self.ga.shape
        blk = self.dist.block(ctx.rank)
        #: Halo-extended local dimensions.
        self.hrows = blk.nrows + 2 * width
        self.hcols = blk.ncols + 2 * width
        #: The halo-extended buffer, allocated after the core block.
        self.halo_base = ctx.region.alloc_named(
            f"ga:{name}:halo", self.hrows * self.hcols, initial=self.boundary
        )
        self._halo_base_by_rank: Dict[int, int] = {ctx.rank: self.halo_base}

    def __repr__(self) -> str:
        return f"<GhostArray {self.name!r} {self.shape} width={self.width}>"

    # -- addressing -------------------------------------------------------------

    def _halo_base_of(self, rank: int) -> int:
        base = self._halo_base_by_rank.get(rank)
        if base is None:
            blk = self.dist.block(rank)
            hrows = blk.nrows + 2 * self.width
            hcols = blk.ncols + 2 * self.width
            base = self.ctx.regions[rank].alloc_named(
                f"ga:{self.name}:halo", hrows * hcols, initial=self.boundary
            )
            self._halo_base_by_rank[rank] = base
        return base

    def _halo_addr(self, rank: int, li: int, lj: int) -> int:
        """Address of halo-buffer cell (li, lj) in halo-local coordinates."""
        blk = self.dist.block(rank)
        hcols = blk.ncols + 2 * self.width
        return self._halo_base_of(rank) + li * hcols + lj

    # -- local views ---------------------------------------------------------------

    def local_with_ghosts(self) -> np.ndarray:
        """Copy of this rank's halo-extended buffer as a 2-D array."""
        values = self.ctx.region.read_many(self.halo_base, self.hrows * self.hcols)
        return _numpy().asarray(values, dtype=float).reshape(self.hrows, self.hcols)

    def local_interior(self) -> np.ndarray:
        """This rank's owned block (the interior of the halo buffer)."""
        w = self.width
        return self.local_with_ghosts()[w:-w, w:-w]

    def set_local(self, block: np.ndarray):
        """Sub-generator: overwrite this rank's owned block (local write)."""
        blk = self.dist.block(self.ctx.rank)
        block = _numpy().asarray(block, dtype=float)
        if block.shape != (blk.nrows, blk.ncols):
            raise ValueError(
                f"block shape {block.shape} != {(blk.nrows, blk.ncols)}"
            )
        ctx = self.ctx
        cost = (
            ctx.params.shm_access_us
            + block.size * 8 * ctx.params.mem_copy_per_byte_us
        )
        if cost > 0.0:
            yield cost
        w = self.width
        for r in range(blk.nrows):
            ctx.region.write_many(
                self._halo_addr(ctx.rank, r + w, w), block[r].tolist()
            )

    # -- the collective ----------------------------------------------------------------

    def update_ghosts(self, sync: str = "new"):
        """Collective: push boundary strips into all neighbors' halos.

        Eight-neighbor (Moore) exchange: each process sends edge strips and
        corner patches of its block into the adjacent processes' halo
        buffers with one vector put per neighbor, then runs GA_Sync in the
        selected mode — the operation whose two implementations the paper
        compares.
        """
        ctx = self.ctx
        w = self.width
        blk = self.dist.block(ctx.rank)
        mine = self.local_interior()
        pr, pc = self.dist.pgrid
        pi, pj = self.dist.grid_coords(ctx.rank)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                ni, nj = pi + di, pj + dj
                if not (0 <= ni < pr and 0 <= nj < pc):
                    continue
                neighbor = ni * pc + nj
                nblk = self.dist.block(neighbor)
                # The strip of MY interior the neighbor needs (my side
                # facing it), in my block-local coordinates.
                rows = _edge_range(di, blk.nrows, w)
                cols = _edge_range(dj, blk.ncols, w)
                patch = mine[rows[0] : rows[1], cols[0] : cols[1]]
                # Its destination inside the neighbor's halo buffer.
                dst_rows = _halo_range(-di, nblk.nrows, w)
                dst_cols = _halo_range(-dj, nblk.ncols, w)
                segments = []
                for k, li in enumerate(range(dst_rows[0], dst_rows[1])):
                    addr = self._halo_addr(neighbor, li, dst_cols[0])
                    segments.append((addr, patch[k].tolist()))
                yield from ctx.armci.put_segments(neighbor, segments)
        yield from self.ga.sync(sync)


def _edge_range(direction: int, extent: int, width: int) -> Tuple[int, int]:
    """Block-local row/col range of the strip facing ``direction``."""
    if direction < 0:
        return (0, width)
    if direction > 0:
        return (extent - width, extent)
    return (0, extent)


def _halo_range(side: int, extent: int, width: int) -> Tuple[int, int]:
    """Halo-local row/col range of the ghost band on ``side`` of a block.

    ``side`` is the direction from the *receiving* block toward the sender
    (-1 = the low-index ghost band, +1 = high-index, 0 = the interior
    span).
    """
    if side < 0:
        return (0, width)
    if side > 0:
        return (width + extent, 2 * width + extent)
    return (width, width + extent)
