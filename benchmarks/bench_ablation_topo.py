"""Ablation bench: flat vs topology-aware barriers on a hierarchy.

Under a two-level topology (8 ranks per SMP node, switch uplinks at 26µs
with 2x contention) the flat binary exchange pays the convoy effect —
every phase pushes ``ppn`` vectors through each node's one NIC — while
the two-level algorithm gathers locally over shared memory, exchanges
one vector per *node*, and releases locally.  This bench locates the
crossover on the (N, algorithm) grid and asserts the priced patterns
(``estimate_us``, which drives ``algorithm="auto"``) predict the
empirical winner at every grid point.
"""

from repro.armci.barrier import estimate_us
from repro.experiments.scalebench import ScaleBenchConfig, run_scalebench
from repro.net.params import myrinet2000
from repro.net.topology import Topology
from repro.topo import two_level

from conftest import print_report

PPN = 8
NPROCS_GRID = (64, 256, 1024)


def _hier_params():
    return myrinet2000().with_(
        hierarchy=two_level(8, uplink_latency_us=26.0, uplink_contention=2.0),
        tree_radix=8,
    )


def _run_grid():
    cfg = ScaleBenchConfig(
        nprocs_list=NPROCS_GRID,
        iterations=3,
        procs_per_node=PPN,
        params=_hier_params(),
        variants=("host-exchange", "twolevel"),
    )
    return run_scalebench(cfg)


def test_topology_crossover(benchmark):
    result = benchmark.pedantic(_run_grid, rounds=1)
    print_report(
        "Ablation: flat exchange vs two-level barrier on a hierarchy",
        result.render(),
    )
    params = _hier_params()
    for nprocs in NPROCS_GRID:
        flat = result.get("host-exchange", nprocs).sync_us
        two = result.get("twolevel", nprocs).sync_us
        topology = Topology(nprocs, procs_per_node=PPN)
        est_flat = estimate_us(params, topology, "exchange")
        est_two = estimate_us(params, topology, "twolevel")
        benchmark.extra_info[f"n{nprocs}"] = {
            "flat_us": round(flat, 1),
            "twolevel_us": round(two, 1),
            "est_flat_us": round(est_flat, 1),
            "est_twolevel_us": round(est_two, 1),
        }
        # The cost model must predict the measured winner at every grid
        # point: it is what auto-selection trusts under a hierarchy.
        assert (est_two < est_flat) == (two < flat), (
            f"N={nprocs}: estimates pick "
            f"{'twolevel' if est_two < est_flat else 'exchange'} but the "
            f"simulation crowned the other "
            f"(sim {two:.1f} vs {flat:.1f}, est {est_two:.1f} vs {est_flat:.1f})"
        )
    # Acceptance: two-level wins at scale (N >= 1024) under the hierarchy...
    assert result.get("twolevel", 1024).sync_us < result.get(
        "host-exchange", 1024
    ).sync_us
    # ...and the flat exchange still wins the small-N end, so the
    # crossover is real rather than twolevel dominating everywhere.
    assert result.get("host-exchange", 64).sync_us < result.get(
        "twolevel", 64
    ).sync_us
