"""One price per barrier, checked against the simulation that runs it.

``estimate_us`` prices each algorithm by running its own message patterns
over a pricing port (see ``repro.mp.collectives.PricePort``); ``auto`` is
the argmin over those prices.  So the property is that a price tracks the
per-rank simulation of the same algorithm, over the (N, ppn, topology)
grid, and that where ``auto``'s choice matters the simulation agrees with
it.
"""

from __future__ import annotations

import functools

import pytest

from repro.armci.barrier import _auto_select, estimate_us
from repro.experiments.ablations import _crossover_workload
from repro.experiments.scalebench import ScaleBenchConfig, run_scalebench
from repro.net.params import myrinet2000
from repro.net.topology import Topology
from repro.runtime.cluster import ClusterRuntime
from repro.topo import two_level


def hier_params(arity=8, contention=2.0):
    return myrinet2000().with_(
        hierarchy=two_level(
            arity, uplink_latency_us=26.0, uplink_contention=contention
        ),
        tree_radix=8,
    )


def price(params, nprocs, algorithm, ppn=1, dirty=0):
    return estimate_us(params, Topology(nprocs, procs_per_node=ppn), algorithm, dirty)


class TestFlatFormsUnchanged:
    def test_exchange_flat_matches_historical_form(self):
        """The flat N=16 choices ``results/ablation_crossover.txt`` prints:
        AllFence + barrier below two dirty servers, the exchange from two."""
        params = myrinet2000()
        for dirty in range(16):
            expected = "linear" if dirty < 2 else "exchange"
            assert _auto_select(_FakeArmci(params, 16, 1, dirty)) == expected, dirty

    def test_ppn_aware_estimate_grows_with_ppn(self):
        params = hier_params()
        assert price(params, 256, "exchange", ppn=8) > price(params, 256, "exchange")


#: Per-rank simulation grid: topology name -> hierarchy.
GRID_TOPOLOGIES = {
    "flat": None,
    "two_level4": two_level(4, uplink_latency_us=26.0, uplink_contention=2.0),
}
GRID_PPN = (1, 2, 4)
GRID_NPROCS = (4, 8, 12, 16, 32, 64)
#: scalebench variant -> ARMCI_Barrier algorithm, and the price's bound on
#: its relative error against the simulation (measured maxima over this
#: grid: 6.5, 9.3, 42.7 and 13.7 %).  kary's is loosest: the price
#: over-estimates it from N=32 at ppn 4 (42.7 % at N=32 under two_level4).
GRID_ALGORITHMS = {
    "host-exchange": ("exchange", 0.10),
    "dissemination": ("dissemination", 0.10),
    "kary": ("kary", 0.50),
    "twolevel": ("twolevel", 0.15),
}


@functools.lru_cache(maxsize=None)
def simulated(topology: str, ppn: int):
    params = myrinet2000().with_(hierarchy=GRID_TOPOLOGIES[topology])
    cfg = ScaleBenchConfig(
        nprocs_list=GRID_NPROCS,
        iterations=2,
        procs_per_node=ppn,
        params=params,
        variants=tuple(GRID_ALGORITHMS),
    )
    return params, run_scalebench(cfg)


class TestPriceTracksSimulation:
    @pytest.mark.parametrize("variant", GRID_ALGORITHMS)
    @pytest.mark.parametrize("nprocs", GRID_NPROCS)
    @pytest.mark.parametrize("ppn", GRID_PPN)
    @pytest.mark.parametrize("topology", GRID_TOPOLOGIES)
    def test_within_bound(self, topology, ppn, nprocs, variant):
        algorithm, bound = GRID_ALGORITHMS[variant]
        params, result = simulated(topology, ppn)
        sim = result.cells[variant][nprocs].sync_us
        est = price(params, nprocs, algorithm, ppn=ppn)
        assert abs(est - sim) <= bound * sim, (
            f"{algorithm} N={nprocs} ppn={ppn} {topology}: "
            f"priced {est:.1f} vs simulated {sim:.1f} us"
        )


class TestCrossoverGrid:
    """Estimates must crown the same winner as the simulation."""

    @pytest.mark.parametrize("nprocs", [64, 256])
    def test_exchange_vs_twolevel(self, nprocs):
        ppn = 8
        params = hier_params()
        cfg = ScaleBenchConfig(
            nprocs_list=(nprocs,),
            iterations=2,
            procs_per_node=ppn,
            params=params,
            variants=("host-exchange", "twolevel"),
        )
        result = run_scalebench(cfg)
        sim_flat = result.cells["host-exchange"][nprocs].sync_us
        sim_two = result.cells["twolevel"][nprocs].sync_us
        est_flat = price(params, nprocs, "exchange", ppn=ppn)
        est_two = price(params, nprocs, "twolevel", ppn=ppn)
        assert (est_two < est_flat) == (sim_two < sim_flat), (
            f"N={nprocs}: sim ({sim_two:.1f} vs {sim_flat:.1f}) and "
            f"est ({est_two:.1f} vs {est_flat:.1f}) disagree on the winner"
        )

    def test_twolevel_wins_at_scale(self):
        params = hier_params()
        assert price(params, 1024, "twolevel", ppn=8) < price(
            params, 1024, "exchange", ppn=8
        )

    def test_exchange_wins_below_the_crossover(self):
        """With test_exchange_vs_twolevel[64], the simulation's winner at
        N=64 is the flat exchange: the crossover is real, not twolevel
        dominating everywhere."""
        params = hier_params()
        assert price(params, 64, "exchange", ppn=8) < price(
            params, 64, "twolevel", ppn=8
        )

    def test_exchange_wins_small_flatish(self):
        """One rank per node: every rank leads its node, so twolevel sends
        exactly the exchange's messages and can only tie it."""
        params = hier_params(contention=1.0)
        assert price(params, 8, "exchange") <= price(params, 8, "twolevel")

    def test_estimates_monotone_in_n(self):
        params = hier_params()
        for algorithm in ("exchange", "dissemination", "kary", "twolevel"):
            values = [price(params, n, algorithm, ppn=8) for n in (64, 256, 1024, 4096)]
            assert values == sorted(values), (algorithm, values)


class _FakeArmci:
    """The duck-typed slice of Armci that _auto_select consults."""

    def __init__(self, params, nprocs, ppn, dirty_count):
        self.params = params
        self.nprocs = nprocs
        self.topology = Topology(nprocs, procs_per_node=ppn)
        self.dirty_nodes = set(range(dirty_count))


class TestAutoSelect:
    def test_flat_choice_unchanged(self):
        """No hierarchy: auto still picks among the original candidates."""
        params = myrinet2000()
        alg = _auto_select(_FakeArmci(params, 16, 1, dirty_count=16))
        assert alg in ("exchange", "linear")

    def test_hier_picks_topology_algorithm_at_scale(self):
        params = hier_params()
        alg = _auto_select(_FakeArmci(params, 1024, 8, dirty_count=128))
        assert alg in ("twolevel", "kary", "dissemination")

    def test_hier_choice_matches_estimate_argmin(self):
        params = hier_params()
        for nprocs, ppn, dirty in ((4, 1, 1), (8, 2, 2), (64, 8, 8)):
            fake = _FakeArmci(params, nprocs, ppn, dirty)
            candidates = ["linear", "exchange", "kary", "dissemination"]
            if ppn > 1:
                candidates.append("twolevel")
            estimates = {
                algorithm: estimate_us(params, fake.topology, algorithm, dirty)
                for algorithm in candidates
            }
            expected = min(sorted(estimates), key=estimates.get)
            alg = _auto_select(fake)
            assert alg == expected, (nprocs, ppn, dirty, alg, estimates)

    def test_choice_is_priced_once(self, monkeypatch):
        """After the first call a choice is a lookup: no schedule is re-run."""
        from repro.mp import collectives

        fake = _FakeArmci(hier_params(), 64, 8, 8)
        first = _auto_select(fake)
        runs = []
        monkeypatch.setattr(
            collectives.PricePort, "run", lambda self, members: runs.append(1)
        )
        assert [_auto_select(fake) for _ in range(3)] == [first] * 3
        assert runs == []


def simulated_sync_us(params, nprocs, algorithm, dirty):
    runtime = ClusterRuntime(nprocs, params=params)
    samples = runtime.run_spmd(_crossover_workload, algorithm, dirty, 5, 16)
    pooled = [s for per_rank in samples for s in per_rank]
    return sum(pooled) / len(pooled)


class TestChoiceIsTheSimulatedWinner:
    """Flat points where pricing the patterns moved ``auto``'s choice away
    from the old closed forms: the simulation crowns the new choice."""

    @pytest.mark.parametrize("nprocs, dirty", [(7, 1), (34, 2), (40, 2), (64, 2)])
    def test_auto_picks_the_winner(self, nprocs, dirty):
        params = myrinet2000()
        sim = {
            algorithm: simulated_sync_us(params, nprocs, algorithm, dirty)
            for algorithm in ("exchange", "linear")
        }
        choice = _auto_select(_FakeArmci(params, nprocs, 1, dirty))
        assert choice == min(sim, key=sim.get), (choice, sim)
