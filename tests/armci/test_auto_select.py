"""Auto-selection over priced patterns: the estimates and the crossover."""

import pytest

from repro.armci.barrier import (
    _auto_select,
    estimate_us,
    predicted_crossover_targets,
)
from repro.net.params import myrinet2000
from repro.net.topology import Topology
from repro.runtime.memory import GlobalAddress


def flat_price(params, nprocs, algorithm, dirty=0):
    return estimate_us(params, Topology(nprocs), algorithm, dirty)


class TestEstimates:
    def test_linear_grows_with_dirty_count(self):
        p = myrinet2000()
        costs = [flat_price(p, 16, "linear", d) for d in range(0, 16)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_exchange_independent_of_dirty_count(self):
        p = myrinet2000()
        assert flat_price(p, 16, "exchange") == flat_price(p, 16, "exchange", 15)
        assert flat_price(p, 16, "exchange") > flat_price(p, 4, "exchange")

    def test_predicted_crossover_in_paper_range(self):
        """§3.1.2: the linear path wins only for a handful of servers."""
        crossover = predicted_crossover_targets(myrinet2000(), 16)
        assert 1 <= crossover <= 4

    def test_predicted_crossover_matches_empirical(self):
        """EXPERIMENTS.md measures the empirical crossover at 2 targets."""
        assert predicted_crossover_targets(myrinet2000(), 16) == 2

    def test_degenerate_sizes(self):
        p = myrinet2000()
        assert flat_price(p, 1, "exchange") >= 0.0
        assert predicted_crossover_targets(p, 1) >= 0


def selector_program(targets):
    """Dirty ``targets`` servers, then report what auto would run."""

    def main(ctx):
        base = ctx.region.alloc(1, initial=0)
        for k in range(targets):
            peer = (ctx.rank + 1 + k) % ctx.nprocs
            if peer != ctx.rank:
                yield from ctx.armci.put(GlobalAddress(peer, base), [1])
        choice = _auto_select(ctx.armci)
        yield from ctx.armci.barrier(algorithm="auto")
        return choice

    return main


class TestAutoSelection:
    def test_few_targets_pick_linear(self, make_cluster):
        rt = make_cluster(nprocs=16)
        assert set(rt.run_spmd(selector_program(1))) == {"linear"}

    def test_many_targets_pick_exchange(self, make_cluster):
        rt = make_cluster(nprocs=16)
        assert set(rt.run_spmd(selector_program(15))) == {"exchange"}

    def test_nic_ignored_without_offload_flag(self, make_cluster):
        """No setting makes ``auto`` weigh the NIC path: it runs only when
        requested as ``algorithm="nic"``."""
        rt = make_cluster(nprocs=16)
        rt.run_spmd(selector_program(15))
        assert getattr(rt.fabric, "_nic_engines", None) is None

    def test_uneven_placement_prices_the_fullest_node(self, make_cluster, monkeypatch):
        """``auto`` prices the ranks where they are placed, not a block
        placement at the fullest node's count."""
        from repro.armci import barrier as barrier_mod

        seen = []
        plain = barrier_mod.estimate_us

        def spy(params, topology, algorithm, dirty=0):
            seen.append(tuple(topology.node_of(r) for r in range(topology.nprocs)))
            return plain(params, topology, algorithm, dirty)

        monkeypatch.setattr(barrier_mod, "estimate_us", spy)
        placement = [0, 0, 0, 1, 2, 2]
        rt = make_cluster(
            nprocs=6, placement=placement, params=myrinet2000(),
        )
        assert len(set(rt.run_spmd(selector_program(5)))) == 1
        assert set(seen) == {tuple(placement)}


@pytest.mark.parametrize("algorithm", ["auto", "nic", "bogus"])
def test_estimate_refuses_what_it_cannot_price(algorithm):
    with pytest.raises(ValueError, match="cannot price"):
        flat_price(myrinet2000(), 4, algorithm)
