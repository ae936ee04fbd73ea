"""Whole-array Global Arrays operations.

The Global Arrays toolkit layers collective whole-array operations over the
one-sided substrate, between the synchronizations the paper optimizes.
:func:`dot` is the one ``repro app`` uses: a local partial dot product plus
an elementwise-sum allreduce (the paper's Figure 2 binary exchange).  It is
collective: every rank must call it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..mp import collectives

if TYPE_CHECKING:  # pragma: no cover
    from .array import GlobalArray

__all__ = ["dot"]


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
