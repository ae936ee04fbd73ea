"""Shape tests for the Figure 7 reproduction (GA_Sync current vs new)."""

import functools

import pytest

from repro.experiments.common import Comparison
from repro.experiments.fig7_sync import Fig7Config, run_fig7
from repro.net.params import gige, myrinet2000, quadrics_like

FAST = Fig7Config(nprocs_list=(2, 4, 8), iterations=8, shape=(64, 64), strip_rows=2)


@pytest.fixture(scope="module")
def fig7():
    return run_fig7(FAST)


class TestFig7Shape:
    def test_new_wins_everywhere(self, fig7):
        for n in fig7.nprocs_list():
            assert fig7.factor(n) > 1.0, f"new must win at {n} procs"

    def test_factor_grows_with_system_size(self, fig7):
        ns = fig7.nprocs_list()
        assert fig7.factor(ns[-1]) > fig7.factor(ns[0])

    def test_current_scales_superlinearly_worse(self, fig7):
        """current grows at least linearly with N; new stays ~logarithmic."""
        cur = fig7.values["current"]
        new = fig7.values["new"]
        assert cur[8] / cur[2] > 3.0
        assert new[8] / new[2] < 3.0

    def test_comparison_table_renders(self, fig7):
        text = fig7.render()
        assert "Figure 7" in text
        assert "factor" in text
        for n in (2, 4, 8):
            assert f"\n{'':>0}{n}" or str(n) in text

    def test_rows_well_formed(self, fig7):
        rows = fig7.to_rows()
        assert rows[0] == ["procs", "current (us)", "new (us)", "factor"]
        assert len(rows) == 1 + len(fig7.nprocs_list())


class TestFig7AtPaperScale:
    def test_sixteen_process_factor_near_paper(self):
        """Calibration guard: the headline factor at 16 procs is ~9 (paper).

        We accept [6, 12] — the claim is the order of magnitude and the
        growth, not the exact testbed constant.
        """
        cfg = Fig7Config(nprocs_list=(16,), iterations=12)
        comparison = run_fig7(cfg)
        assert 6.0 <= comparison.factor(16) <= 12.0

    def test_absolute_magnitudes_in_paper_ballpark(self):
        """new @16 should land within ~3x of the paper's 190.3us, current
        within ~3x of 1724.3us."""
        cfg = Fig7Config(nprocs_list=(16,), iterations=12)
        comparison = run_fig7(cfg)
        assert 60 <= comparison.get("new", 16) <= 600
        assert 550 <= comparison.get("current", 16) <= 5200


@functools.lru_cache(maxsize=None)
def at_sixteen(**overrides):
    """Figure 7's 16-process point under ``overrides``: (current, new, factor)."""
    comparison = run_fig7(Fig7Config(nprocs_list=(16,), iterations=4, **overrides))
    return (
        comparison.get("current", 16),
        comparison.get("new", 16),
        comparison.factor(16),
    )


class TestInterconnects:
    """The paper measures Myrinet-2000 only; the log-vs-linear gap is
    structural, so it must hold on GigE/TCP and a Quadrics-like fabric too."""

    FABRICS = {
        "myrinet2000": myrinet2000(),
        "gige": gige(),
        "quadrics": quadrics_like(),
    }

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_combined_barrier_wins_on_every_fabric(self, fabric):
        assert at_sixteen(params=self.FABRICS[fabric])[2] > 2.0

    def test_saving_per_sync_grows_with_wire_cost(self):
        """The ratio can shrink on GigE (its MPI stack slows the log phases
        too), but the microseconds saved per GA_Sync grow with wire cost."""
        saving = {}
        for name, params in self.FABRICS.items():
            current, new, _factor = at_sixteen(params=params)
            saving[name] = current - new
        assert saving["gige"] > saving["myrinet2000"] > saving["quadrics"]


class TestDataVolume:
    """The paper does not state the strip size.  Little data leaves pure
    protocol cost, where the log-vs-linear gap is widest; heavy data makes
    both implementations wait on the same put completions."""

    VOLUMES = {
        "1-row": ((128, 128), 1),
        "4-row": ((256, 256), 4),
        "16-row": ((512, 512), 16),
    }

    def factor(self, volume):
        shape, strip_rows = self.VOLUMES[volume]
        return at_sixteen(shape=shape, strip_rows=strip_rows)[2]

    @pytest.mark.parametrize("volume", sorted(VOLUMES))
    def test_optimization_wins_at_every_volume(self, volume):
        assert self.factor(volume) > 2.0

    def test_heavy_data_dilutes_the_factor(self):
        assert self.factor("16-row") < self.factor("1-row") * 1.05


class TestDualSmp:
    """The testbed's nodes are dual SMPs; the paper places one process per
    node.  Two per node (16 processes on 8 nodes) moves the linear fence."""

    def test_optimization_holds_at_both_placements(self):
        for ppn in (1, 2):
            assert at_sixteen(procs_per_node=ppn)[2] > 4.0

    def test_colocation_halves_the_linear_fence(self):
        """Half the servers to confirm with; same-node puts bypass servers."""
        assert at_sixteen(procs_per_node=2)[0] < 0.7 * at_sixteen(procs_per_node=1)[0]

    def test_exchange_barrier_is_placement_insensitive(self):
        new1, new2 = at_sixteen(procs_per_node=1)[1], at_sixteen(procs_per_node=2)[1]
        assert abs(new2 - new1) < 0.15 * new1

    def test_colocation_shrinks_the_factor(self):
        """Co-location is itself a partial remedy for the convoy."""
        assert at_sixteen(procs_per_node=2)[2] < at_sixteen(procs_per_node=1)[2]


class TestComparisonHelpers:
    def test_factor_math(self):
        c = Comparison("t", "m", baseline="current", improved="new")
        c.record("current", 4, 100.0)
        c.record("new", 4, 25.0)
        assert c.factor(4) == 4.0

    def test_missing_series_raises(self):
        c = Comparison("t", "m", baseline="current", improved="new")
        c.record("current", 4, 100.0)
        with pytest.raises(KeyError):
            c.factor(4)
