"""Integration tests for the Global Arrays layer."""

import numpy as np
import pytest

from repro.ga.array import GlobalArray


def make_ga_program(shape, body):
    def main(ctx):
        ga = GlobalArray(ctx, "T", shape)
        result = yield from body(ctx, ga)
        return result

    return main


class TestCreation:
    def test_explicit_pgrid_must_cover_procs(self, make_cluster):
        def main(ctx):
            GlobalArray(ctx, "X", (8, 8), pgrid=(3, 1))
            yield ctx.compute(0)

        rt = make_cluster(nprocs=4)
        with pytest.raises(ValueError, match="does not cover"):
            rt.run_spmd(main)

    def test_local_block_shape(self, make_cluster):
        def body(ctx, ga):
            yield ctx.compute(0)
            return ga.local_block().shape

        rt = make_cluster(nprocs=4)
        shapes = rt.run_spmd(make_ga_program((8, 12), body))
        assert shapes == [(4, 6)] * 4

    def test_same_name_same_cells(self, make_cluster):
        """Two handles with the same name alias the same storage."""

        def main(ctx):
            a = GlobalArray(ctx, "same", (4, 4))
            b = GlobalArray(ctx, "same", (4, 4))
            yield from a.put(a.my_block_section(), np.ones(a.local_block().shape))
            yield from a.sync("new")
            return float(b.local_block().sum())

        rt = make_cluster(nprocs=4)
        sums = rt.run_spmd(main)
        assert sums == [4.0] * 4


class TestPutGet:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 6])
    def test_full_array_roundtrip(self, make_cluster, nprocs):
        rows, cols = 12, 10
        reference = np.arange(rows * cols, dtype=float).reshape(rows, cols)

        def body(ctx, ga):
            if ctx.rank == 0:
                yield from ga.put((0, rows, 0, cols), reference)
            yield from ga.sync("new")
            result = yield from ga.get((0, rows, 0, cols))
            return result

        rt = make_cluster(nprocs=nprocs)
        for got in rt.run_spmd(make_ga_program((rows, cols), body)):
            np.testing.assert_array_equal(got, reference)

    def test_section_roundtrip_crossing_blocks(self, make_cluster):
        def body(ctx, ga):
            if ctx.rank == 1:
                data = np.full((4, 6), 3.5)
                yield from ga.put((2, 6, 1, 7), data)
            yield from ga.sync("new")
            got = yield from ga.get((2, 6, 1, 7))
            return float(got.sum())

        rt = make_cluster(nprocs=4)
        sums = rt.run_spmd(make_ga_program((8, 8), body))
        assert sums == [4 * 6 * 3.5] * 4

    def test_put_shape_mismatch(self, make_cluster):
        def body(ctx, ga):
            yield from ga.put((0, 2, 0, 2), np.zeros((3, 3)))

        rt = make_cluster(nprocs=1)
        with pytest.raises(ValueError, match="shape"):
            rt.run_spmd(make_ga_program((4, 4), body))

    def test_section_bounds_checked(self, make_cluster):
        def body(ctx, ga):
            result = yield from ga.get((0, 99, 0, 1))
            return result

        rt = make_cluster(nprocs=1)
        with pytest.raises(IndexError):
            rt.run_spmd(make_ga_program((4, 4), body))

    def test_put_without_sync_not_guaranteed_then_sync_completes(self, make_cluster):
        def body(ctx, ga):
            rows, cols = ga.shape
            if ctx.rank == 0:
                yield from ga.put((0, rows, 0, cols), np.ones((rows, cols)))
            yield from ga.sync("new")
            return float(ga.local_block().sum())

        rt = make_cluster(nprocs=4)
        sums = rt.run_spmd(make_ga_program((8, 8), body))
        assert sum(sums) == 64.0


class TestSyncModes:
    @pytest.mark.parametrize("mode", ["current", "new", "auto"])
    def test_all_modes_complete_all_puts(self, make_cluster, mode):
        def body(ctx, ga):
            # everyone scatters its rank into every other block's corner
            for rank in range(ctx.nprocs):
                if rank == ctx.rank:
                    continue
                blk = ga.dist.block(rank)
                yield from ga.put(
                    (blk.row0, blk.row0 + 1, blk.col0, blk.col0 + 1),
                    np.array([[float(ctx.rank + 1)]]),
                )
            yield from ga.sync(mode)
            return float(ga.local_block()[0, 0])

        rt = make_cluster(nprocs=4)
        corners = rt.run_spmd(make_ga_program((8, 8), body))
        assert all(c in {1.0, 2.0, 3.0, 4.0} for c in corners)

    def test_modes_produce_identical_data(self, make_cluster):
        def body_factory(mode):
            def body(ctx, ga):
                rows, cols = ga.shape
                slab = rows // ctx.nprocs
                r0 = ctx.rank * slab
                data = np.full((slab, cols), float(ctx.rank + 1))
                yield from ga.put((r0, r0 + slab, 0, cols), data)
                yield from ga.sync(mode)
                result = yield from ga.get((0, rows, 0, cols))
                return result

            return body

        snapshots = {}
        for mode in ("current", "new", "auto"):
            rt = make_cluster(nprocs=4)
            results = rt.run_spmd(make_ga_program((8, 8), body_factory(mode)))
            snapshots[mode] = results[0]
        np.testing.assert_array_equal(snapshots["current"], snapshots["new"])
        np.testing.assert_array_equal(snapshots["current"], snapshots["auto"])

    def test_unknown_mode_rejected(self, make_cluster):
        def body(ctx, ga):
            yield from ga.sync("warp")

        rt = make_cluster(nprocs=2)
        with pytest.raises(ValueError, match="GA_Sync mode"):
            rt.run_spmd(make_ga_program((4, 4), body))
