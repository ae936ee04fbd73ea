"""Unit tests for SMP node placement."""

import pytest

from repro.net.topology import Topology


class TestBlockPlacement:
    def test_one_proc_per_node(self):
        topo = Topology(4)
        assert topo.nnodes == 4
        assert [topo.node_of(r) for r in range(4)] == [0, 1, 2, 3]

    def test_dual_smp_placement(self):
        topo = Topology(8, procs_per_node=2)
        assert topo.nnodes == 4
        assert topo.ranks_on(0) == (0, 1)
        assert topo.ranks_on(3) == (6, 7)

    def test_partial_last_node(self):
        topo = Topology(5, procs_per_node=2)
        assert topo.nnodes == 3
        assert topo.ranks_on(2) == (4,)

    def test_same_node(self):
        topo = Topology(8, procs_per_node=2)
        assert topo.same_node(0, 1)
        assert not topo.same_node(1, 2)
        assert topo.same_node(6, 7)

    def test_all_ranks_on_one_node(self):
        topo = Topology(6, procs_per_node=6)
        assert topo.nnodes == 1
        assert topo.ranks_on(0) == (0, 1, 2, 3, 4, 5)


class TestExplicitPlacement:
    def test_placement_list(self):
        topo = Topology(4, placement=[0, 1, 0, 1])
        assert topo.nnodes == 2
        assert topo.ranks_on(0) == (0, 2)
        assert topo.same_node(0, 2)

    def test_placement_overrides_ppn(self):
        topo = Topology(3, procs_per_node=99, placement=[0, 0, 1])
        assert topo.nnodes == 2

    def test_placement_wrong_length(self):
        with pytest.raises(ValueError, match="entries"):
            Topology(3, placement=[0, 1])

    def test_placement_non_dense_node_ids(self):
        with pytest.raises(ValueError, match="dense"):
            Topology(3, placement=[0, 2, 2])

    def test_placement_negative_node(self):
        with pytest.raises(ValueError, match="non-negative"):
            Topology(2, placement=[0, -1])


class TestDerivedLayout:
    @pytest.mark.parametrize(
        "topo",
        [
            Topology(8, procs_per_node=2),
            Topology(5, procs_per_node=2),
            Topology(3, procs_per_node=4),
            Topology(6, placement=[0, 0, 0, 1, 2, 2]),
            Topology(5, placement=[2, 0, 1, 1, 1]),
        ],
        ids=repr,
    )
    def test_procs_per_node_and_leaders_match_a_scan(self, topo):
        nodes = range(topo.nnodes)
        assert topo.procs_per_node == max(len(topo.ranks_on(n)) for n in nodes)
        assert topo.leaders == tuple(topo.ranks_on(n)[0] for n in nodes)


class TestValidation:
    def test_zero_procs_rejected(self):
        with pytest.raises(ValueError):
            Topology(0)

    def test_zero_ppn_rejected(self):
        with pytest.raises(ValueError):
            Topology(4, procs_per_node=0)

    def test_rank_out_of_range(self):
        topo = Topology(4)
        with pytest.raises(ValueError):
            topo.node_of(4)
        with pytest.raises(ValueError):
            topo.node_of(-1)
        with pytest.raises(ValueError):
            topo.same_node(0, 99)

    def test_node_out_of_range(self):
        with pytest.raises(ValueError):
            Topology(4).ranks_on(7)
