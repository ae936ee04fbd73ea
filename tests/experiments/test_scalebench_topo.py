"""Scalebench extensions: variant selection, budget, JSON/CSV export."""

from __future__ import annotations

import json

from repro.experiments.report import scalebench_to_csv
from repro.experiments.scalebench import (
    HIER_SCALE_VARIANTS,
    SCALE_VARIANTS,
    ScaleBenchConfig,
    run_scalebench,
)
from repro.net.params import myrinet2000
from repro.topo import two_level


def hier_params():
    return myrinet2000().with_(hierarchy=two_level(4), tree_radix=4)


def small_cfg(**overrides):
    base = dict(
        nprocs_list=(8, 16),
        iterations=2,
        procs_per_node=4,
        params=hier_params(),
    )
    base.update(overrides)
    return ScaleBenchConfig(**base)


class TestVariantSelection:
    def test_flat_default_unchanged(self):
        result = run_scalebench(ScaleBenchConfig(nprocs_list=(8,), iterations=1))
        assert result.variants == SCALE_VARIANTS

    def test_hierarchy_selects_topo_variants(self):
        result = run_scalebench(small_cfg())
        assert result.variants == HIER_SCALE_VARIANTS
        for variant in HIER_SCALE_VARIANTS:
            assert result.cells[variant][8].sync_us > 0

    def test_explicit_variants_respected(self):
        result = run_scalebench(small_cfg(variants=("twolevel",)))
        assert result.variants == ("twolevel",)
        assert "host-exchange" not in result.cells

    def test_unknown_variant_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="unknown scalebench variant"):
            run_scalebench(small_cfg(variants=("warp-drive",)))

    def test_title_mentions_hierarchy(self):
        result = run_scalebench(small_cfg())
        assert "hierarchical topology" in result.title
        assert "switch:4" in result.title


class TestWallBudget:
    def test_zero_budget_skips_everything_with_note(self):
        result = run_scalebench(small_cfg(wall_budget_s=0.0))
        assert result.nprocs_list() == []
        assert any("wall budget" in n and "skipped" in n for n in result.notes)

    def test_generous_budget_completes_all(self):
        result = run_scalebench(small_cfg(wall_budget_s=600.0))
        assert result.nprocs_list() == [8, 16]
        assert not any("skipped" in n for n in result.notes)

    def test_missing_cells_render_as_dash(self):
        result = run_scalebench(small_cfg(wall_budget_s=0.0))
        result.record(
            run_scalebench(small_cfg(nprocs_list=(8,), variants=("twolevel",)))
            .cells["twolevel"][8]
        )
        rows = result.to_rows()
        assert "-" in rows[1]  # other variants missing at N=8
        assert result.render()  # renders without KeyError


class TestExport:
    def test_to_json_roundtrips(self):
        result = run_scalebench(small_cfg(variants=("host-exchange", "twolevel")))
        data = json.loads(json.dumps(result.to_json()))
        assert data["variants"] == ["host-exchange", "twolevel"]
        assert data["nprocs"] == [8, 16]
        cells = {(c["variant"], c["nprocs"]): c for c in data["cells"]}
        assert len(cells) == 4
        assert (
            cells[("twolevel", 16)]["sync_us"] == result.cells["twolevel"][16].sync_us
        )

    def test_csv_rows(self):
        result = run_scalebench(small_cfg(variants=("twolevel",)))
        lines = scalebench_to_csv(result).strip().splitlines()
        assert lines[0] == "variant,nprocs,sync_us,events,wall_s"
        assert len(lines) == 3
        assert lines[1].startswith("twolevel,8,")
        assert lines[2].startswith("twolevel,16,")

    def test_simulated_columns_deterministic(self):
        a = run_scalebench(small_cfg(variants=("twolevel", "kary")))
        b = run_scalebench(small_cfg(variants=("twolevel", "kary")))
        for variant in ("twolevel", "kary"):
            for n in (8, 16):
                assert a.cells[variant][n].sync_us == b.cells[variant][n].sync_us
                assert a.cells[variant][n].events == b.cells[variant][n].events
