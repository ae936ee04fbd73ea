"""Per-node actor coalescing: determinism, accuracy, and scale.

Coalescing is an *approximation* with a stated contract: the intra-node
phases are charged analytically, the inter-node phases are simulated for real, and the leaders' vector
inflation is charged explicitly — so a coalesced run must stay within a
tight band of the full per-rank two-level run, at a fraction of the
simulated events.
"""

from __future__ import annotations

import pytest

from repro.experiments.scalebench import ScaleBenchConfig, run_scalebench
from repro.net.params import myrinet2000
from repro.topo import two_level
from repro.topo.coalesce import (
    gather_charge_us,
    intra_puts_charge_us,
    local_round_charge_us,
    vector_inflation_us,
)


def hier_params(arity=8):
    return myrinet2000().with_(
        hierarchy=two_level(arity, uplink_latency_us=26.0, uplink_contention=2.0),
        tree_radix=8,
    )


class TestCharges:
    def test_ppn_one_is_free(self):
        params = myrinet2000()
        assert intra_puts_charge_us(params, 1, 8) == 0.0
        assert gather_charge_us(params, 1) == pytest.approx(
            params.intra_latency_us
        )

    def test_charges_scale_with_ppn(self):
        params = myrinet2000()
        assert local_round_charge_us(params, 8) > local_round_charge_us(params, 4)
        assert intra_puts_charge_us(params, 8, 8) > intra_puts_charge_us(
            params, 4, 8
        )

    def test_vector_inflation_zero_when_uncoalesced(self):
        assert vector_inflation_us(myrinet2000(), 64, 64) == 0.0

    def test_vector_inflation_positive_under_coalescing(self):
        assert vector_inflation_us(hier_params(), 1024, 128) > 0.0


class TestCoalescedRuns:
    def _cfg(self, coalesce, nprocs=64, iterations=3, ppn=8):
        return ScaleBenchConfig(
            nprocs_list=(nprocs,),
            iterations=iterations,
            procs_per_node=ppn,
            params=hier_params(),
            variants=("twolevel",),
            coalesce=coalesce,
        )

    def test_deterministic(self):
        a = run_scalebench(self._cfg(True)).cells["twolevel"][64]
        b = run_scalebench(self._cfg(True)).cells["twolevel"][64]
        assert a.sync_us == b.sync_us and a.events == b.events

    def test_accuracy_vs_full_run(self):
        """Coalesced sync time within 15% of the faithful per-rank run."""
        full = run_scalebench(self._cfg(False)).cells["twolevel"][64]
        coal = run_scalebench(self._cfg(True)).cells["twolevel"][64]
        assert coal.sync_us == pytest.approx(full.sync_us, rel=0.15)
        # The point of coalescing: far fewer simulated events.
        assert coal.events < full.events / 2

    def test_reports_logical_nprocs(self):
        cell = run_scalebench(self._cfg(True)).cells["twolevel"][64]
        assert cell.nprocs == 64

    def test_large_n_tractable(self):
        """N=4096 coalesced completes with event counts scaling with
        nnodes, not N (the full run would be ~16x bigger)."""
        cfg = ScaleBenchConfig(
            nprocs_list=(4096,),
            iterations=1,
            procs_per_node=16,
            params=hier_params(16),
            coalesce=True,
        )
        cell = run_scalebench(cfg).cells["twolevel"][4096]
        assert cell.sync_us > 0
        assert cell.events < 200_000


class TestValidation:
    def test_requires_ppn(self):
        with pytest.raises(ValueError, match="procs_per_node > 1"):
            run_scalebench(
                ScaleBenchConfig(
                    nprocs_list=(64,),
                    procs_per_node=1,
                    params=hier_params(),
                    coalesce=True,
                )
            )

    def test_requires_divisible_n(self):
        with pytest.raises(ValueError, match="divisible"):
            run_scalebench(
                ScaleBenchConfig(
                    nprocs_list=(63,),
                    procs_per_node=8,
                    params=hier_params(),
                    coalesce=True,
                )
            )

    def test_uncoalescible_variant_rejected(self):
        # kary and dissemination have no per-node decomposition: coalesced,
        # they would report twolevel's intra-node phases as their own time.
        for variant in ("nic-exchange", "kary", "dissemination"):
            with pytest.raises(ValueError, match="cannot run coalesced"):
                run_scalebench(
                    ScaleBenchConfig(
                        nprocs_list=(64,),
                        procs_per_node=8,
                        params=hier_params(),
                        variants=(variant,),
                        coalesce=True,
                    )
                )
