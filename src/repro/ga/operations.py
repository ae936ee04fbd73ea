"""Whole-array Global Arrays operations.

The Global Arrays toolkit layers collective whole-array operations over the
one-sided substrate: each process updates *its own block* in shared memory
and a ``GA_Sync`` makes the result globally visible.  These are the
operations the paper's motivating applications (NWChem-style codes) pepper
between the synchronizations it optimizes:

* :func:`fill`, :func:`scale`, :func:`add` — embarrassingly local updates;
* :func:`copy` — block-to-block copy between two identically distributed
  arrays;
* :func:`dot` — local partial dot product + elementwise-sum allreduce
  (reusing the paper's Figure 2 binary-exchange).

All are collective: every rank must call them, and they synchronize with
the selected GA_Sync implementation (``current``/``new``/``auto``) so the
experiments can compare application-level impact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..mp import collectives
from .array import _numpy

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .array import GlobalArray

__all__ = ["fill", "scale", "add", "copy", "dot"]


def _write_own_block(ga: "GlobalArray", block: np.ndarray):
    """Store a new value for the caller's own block (direct, local)."""
    ctx = ga.ctx
    cells = block.reshape(-1).tolist()
    cost = (
        ctx.params.shm_access_us
        + len(cells) * 8 * ctx.params.mem_copy_per_byte_us
    )
    if cost > 0.0:
        yield cost
    ctx.region.write_many(ga.base_addr, cells)


def fill(ga: "GlobalArray", value: float, sync: str = "new"):
    """Collective: set every element to ``value`` (GA_Fill)."""
    blk = ga.dist.block(ga.ctx.rank)
    yield from _write_own_block(
        ga, _numpy().full((blk.nrows, blk.ncols), float(value))
    )
    yield from ga.sync(sync)


def scale(ga: "GlobalArray", factor: float, sync: str = "new"):
    """Collective: multiply every element by ``factor`` (GA_Scale)."""
    yield from _write_own_block(ga, ga.local_block() * float(factor))
    yield from ga.sync(sync)


def add(
    ga_out: "GlobalArray",
    ga_a: "GlobalArray",
    ga_b: "GlobalArray",
    alpha: float = 1.0,
    beta: float = 1.0,
    sync: str = "new",
):
    """Collective: ``out = alpha*a + beta*b`` elementwise (GA_Add).

    All three arrays must share shape and distribution.
    """
    for other in (ga_a, ga_b):
        if other.shape != ga_out.shape or other.dist.pgrid != ga_out.dist.pgrid:
            raise ValueError(
                f"distribution mismatch: {other!r} vs {ga_out!r}"
            )
    block = alpha * ga_a.local_block() + beta * ga_b.local_block()
    yield from _write_own_block(ga_out, block)
    yield from ga_out.sync(sync)


def copy(ga_src: "GlobalArray", ga_dst: "GlobalArray", sync: str = "new"):
    """Collective: ``dst = src`` (GA_Copy), identical distributions."""
    if ga_src.shape != ga_dst.shape or ga_src.dist.pgrid != ga_dst.dist.pgrid:
        raise ValueError(f"distribution mismatch: {ga_src!r} vs {ga_dst!r}")
    yield from _write_own_block(ga_dst, ga_src.local_block())
    yield from ga_dst.sync(sync)


def dot(ga_a: "GlobalArray", ga_b: "GlobalArray"):
    """Collective: global dot product (GA_Ddot).

    Local partial over the owned block, then the binary-exchange
    elementwise-sum allreduce (the same algorithm as the new barrier's
    stage 1).  Returns the same float on every rank.
    """
    if ga_a.shape != ga_b.shape or ga_a.dist.pgrid != ga_b.dist.pgrid:
        raise ValueError(f"distribution mismatch: {ga_a!r} vs {ga_b!r}")
    ctx = ga_a.ctx
    partial = float((ga_a.local_block() * ga_b.local_block()).sum())
    # Model the local multiply-accumulate cost.
    blk = ga_a.dist.block(ctx.rank)
    yield blk.cells * 8 * ctx.params.mem_copy_per_byte_us
    total = yield from collectives.allreduce_sum(ctx.comm, [partial])
    return total[0]
