"""Hierarchy model: validation, crossing levels, inheritance, params."""

from __future__ import annotations

import pytest

from repro.net.params import NetworkParams
from repro.topo import Hierarchy, LevelSpec, two_level


class TestLevelSpecValidation:
    def test_arity_floor(self):
        with pytest.raises(ValueError, match="arity must be >= 2"):
            LevelSpec(name="switch", arity=1)

    def test_negative_latency(self):
        with pytest.raises(ValueError, match="latency_us must be non-negative"):
            LevelSpec(name="switch", arity=4, latency_us=-1.0)

    def test_negative_per_byte(self):
        with pytest.raises(ValueError, match="per_byte_us must be non-negative"):
            LevelSpec(name="switch", arity=4, per_byte_us=-0.1)

    def test_contention_floor(self):
        with pytest.raises(ValueError, match="contention must be >= 1"):
            LevelSpec(name="switch", arity=4, contention=0.5)

    def test_empty_name(self):
        with pytest.raises(ValueError, match="non-empty string"):
            LevelSpec(name="", arity=4)

    @pytest.mark.parametrize("field", ["latency_us", "per_byte_us", "contention"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_costs_are_finite(self, field, value):
        # NaN passes every ``< floor`` test; as a latency it becomes the clock.
        with pytest.raises(ValueError, match=f"level 'switch': {field} must be .* finite"):
            LevelSpec(name="switch", arity=4, **{field: value})


class TestHierarchyValidation:
    def test_needs_levels(self):
        with pytest.raises(ValueError, match="at least one level"):
            Hierarchy(levels=())

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate level names"):
            Hierarchy(
                levels=(
                    LevelSpec(name="switch", arity=4),
                    LevelSpec(name="switch", arity=8),
                )
            )

    def test_levels_must_be_specs(self):
        with pytest.raises(TypeError, match="LevelSpec"):
            Hierarchy(levels=("switch:4",))

    def test_caps_are_cumulative(self):
        h = Hierarchy(
            levels=(
                LevelSpec(name="switch", arity=4),
                LevelSpec(name="rack", arity=8),
                LevelSpec(name="cluster", arity=2),
            )
        )
        assert h.caps == (4, 32, 64)
        assert len(h.levels) == 3


class TestCrossingLevel:
    def setup_method(self):
        self.h = Hierarchy(
            levels=(
                LevelSpec(name="switch", arity=4),
                LevelSpec(name="rack", arity=4),
            )
        )

    def test_same_switch(self):
        assert self.h.crossing_level(0, 3) == 0
        assert self.h.crossing_level(12, 15) == 0

    def test_cross_switch_same_rack(self):
        assert self.h.crossing_level(0, 4) == 1
        assert self.h.crossing_level(3, 15) == 1

    def test_beyond_capacity_charges_outermost(self):
        # caps = (4, 16): nodes 0 and 16 share no group -> outermost.
        assert self.h.crossing_level(0, 16) == 1
        assert self.h.crossing_level(0, 1000) == 1


class TestResolve:
    def test_inheritance_and_contention(self):
        h = Hierarchy(
            levels=(
                LevelSpec(name="switch", arity=4),
                LevelSpec(name="rack", arity=4, latency_us=26.0, contention=2.0),
            )
        )
        lat, per_byte = h.resolve(6.5, 0.004)
        assert lat == (6.5, 26.0)
        assert per_byte == (0.004, 0.008)

    def test_explicit_per_byte_override(self):
        h = Hierarchy(
            levels=(LevelSpec(name="switch", arity=4, per_byte_us=0.02),)
        )
        _lat, per_byte = h.resolve(6.5, 0.004)
        assert per_byte == (0.02,)

    def test_degenerate_inherited_level_is_exact(self):
        # contention 1.0 multiplies exactly in IEEE arithmetic, so a
        # fully-inherited level reproduces the flat figures bit-for-bit.
        h = Hierarchy(levels=(LevelSpec(name="all", arity=4096),))
        lat, per_byte = h.resolve(6.5, 0.004)
        assert lat[0] == 6.5 and per_byte[0] == 0.004


class TestTwoLevel:
    def test_shape(self):
        h = two_level(8, uplink_latency_us=26.0, uplink_contention=2.0)
        assert len(h.levels) == 2
        assert h.caps[0] == 8
        assert h.levels[0].latency_us is None  # leaf inherits flat latency
        assert h.levels[1].latency_us == 26.0
        assert h.levels[1].contention == 2.0

    def test_label(self):
        assert two_level(8).label() == "switch:8 > cluster:4096"


class TestNetworkParamsIntegration:
    def test_hierarchy_field_validated(self):
        with pytest.raises((TypeError, ValueError)):
            NetworkParams(hierarchy="switch:8")

    def test_tree_radix_floor(self):
        with pytest.raises(ValueError, match="tree_radix"):
            NetworkParams(tree_radix=1)

    def test_hierarchy_accepted(self):
        params = NetworkParams(hierarchy=two_level(4), tree_radix=8)
        assert params.hierarchy.caps[0] == 4
        assert params.tree_radix == 8

    def test_default_is_flat(self):
        assert NetworkParams().hierarchy is None
