"""Calibrated auto-selection: cost-model estimates and the crossover."""

import pytest

from repro.armci.barrier import (
    _auto_select,
    estimate_exchange_us,
    estimate_linear_us,
    estimate_nic_us,
    predicted_crossover_targets,
)
from repro.net.params import myrinet2000
from repro.runtime.memory import GlobalAddress


class TestEstimates:
    def test_linear_grows_with_dirty_count(self):
        p = myrinet2000()
        costs = [estimate_linear_us(p, 16, d) for d in range(0, 16)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_exchange_independent_of_dirty_count(self):
        p = myrinet2000()
        assert estimate_exchange_us(p, 16) == estimate_exchange_us(p, 16)
        assert estimate_exchange_us(p, 16) > estimate_exchange_us(p, 4)

    def test_predicted_crossover_in_paper_range(self):
        """§3.1.2: the linear path wins only for a handful of servers."""
        crossover = predicted_crossover_targets(myrinet2000(), 16)
        assert 1 <= crossover <= 4

    def test_predicted_crossover_matches_empirical(self):
        """EXPERIMENTS.md measures the empirical crossover at 2 targets."""
        assert predicted_crossover_targets(myrinet2000(), 16) == 2

    def test_nic_estimate_beats_host_exchange_at_scale(self):
        p = myrinet2000()
        for n in (8, 16):
            assert estimate_nic_us(p, n, n) < estimate_exchange_us(p, n)

    def test_degenerate_sizes(self):
        p = myrinet2000()
        assert estimate_exchange_us(p, 1) >= 0.0
        assert estimate_nic_us(p, 1, 1) >= 0.0
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
        rt = make_cluster(nprocs=16)
        rt.run_spmd(selector_program(15))
        assert getattr(rt.fabric, "_nic_engines", None) is None

    def test_nic_considered_with_offload_flag(self, make_cluster):
        rt = make_cluster(nprocs=16, params=myrinet2000(nic_offload=True))
        choices = set(rt.run_spmd(selector_program(15)))
        assert choices == {"nic"}
        assert rt.fabric._nic_engines is not None

    def test_offloaded_auto_still_picks_linear_when_cheap(self, make_cluster):
        """No dirty servers: the bare MPI barrier beats even the NIC."""
        rt = make_cluster(nprocs=16, params=myrinet2000(nic_offload=True))
        assert set(rt.run_spmd(selector_program(0))) == {"linear"}

    def test_uneven_placement_prices_the_fullest_node(self, make_cluster, monkeypatch):
        """``auto`` reads ppn off the topology; it is the fullest node's count."""
        from repro.armci import barrier as barrier_mod

        seen = []
        plain = barrier_mod.estimate_nic_us

        def spy(params, nprocs, nnodes, ppn=1):
            seen.append((nnodes, ppn))
            return plain(params, nprocs, nnodes, ppn)

        monkeypatch.setattr(barrier_mod, "estimate_nic_us", spy)
        rt = make_cluster(
            nprocs=6, placement=[0, 0, 0, 1, 2, 2],
            params=myrinet2000(nic_offload=True),
        )
        assert len(set(rt.run_spmd(selector_program(5)))) == 1
        assert set(seen) == {(3, 3)}
