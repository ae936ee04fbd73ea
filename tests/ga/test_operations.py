"""Tests for the whole-array Global Arrays operations."""

import numpy as np
import pytest

from repro.ga import GlobalArray, dot


def spmd_ga(make_cluster, nprocs, body, shape=(8, 8)):
    def main(ctx):
        result = yield from body(ctx)
        return result

    rt = make_cluster(nprocs=nprocs)
    return rt, rt.run_spmd(main)


class TestDot:
    def test_dot_product_matches_numpy(self, make_cluster):
        def body(ctx):
            a = GlobalArray(ctx, "DA", (6, 4))
            b = GlobalArray(ctx, "DB", (6, 4))
            if ctx.rank == 0:
                data_a = np.arange(24, dtype=float).reshape(6, 4)
                data_b = np.arange(24, 48, dtype=float).reshape(6, 4)
                yield from a.put((0, 6, 0, 4), data_a)
                yield from b.put((0, 6, 0, 4), data_b)
            yield from a.sync("new")
            result = yield from dot(a, b)
            return result

        _rt, results = spmd_ga(make_cluster, 4, body)
        expected = float(
            (np.arange(24) * np.arange(24, 48)).sum()
        )
        assert all(r == pytest.approx(expected) for r in results)

    def test_same_value_on_every_rank(self, make_cluster):
        def body(ctx):
            a = GlobalArray(ctx, "DD", (5, 5))
            yield from a.put(a.my_block_section(), np.full(a.local_block().shape, 2.0))
            yield from a.sync("new")
            result = yield from dot(a, a)
            return result

        _rt, results = spmd_ga(make_cluster, 5, body)
        assert results == [pytest.approx(100.0)] * 5

    def test_mismatch_rejected(self, make_cluster):
        def main(ctx):
            a = GlobalArray(ctx, "DX", (4, 4))
            b = GlobalArray(ctx, "DY", (4, 6))
            yield from dot(a, b)

        rt = make_cluster(nprocs=2)
        with pytest.raises(ValueError, match="distribution mismatch"):
            rt.run_spmd(main)
