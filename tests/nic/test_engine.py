"""NIC-offloaded barrier: semantics, cost, faults, and lazy construction."""

import pytest

from repro.analysis import SyncMonitor
from repro.experiments.scalebench import ScaleBenchConfig, scale_workload
from repro.net.faults import FaultPlan, ProcessCrash
from repro.net.params import NetworkParams, myrinet2000
from repro.nic import engine as engine_mod
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress
from repro.sim.core import CRASHED


def all_to_all_put_program(algorithm):
    """Every rank puts into every other rank, then barriers; returns memory."""

    def main(ctx):
        base = ctx.region.alloc(ctx.nprocs, initial=0)
        for peer in range(ctx.nprocs):
            if peer != ctx.rank:
                yield from ctx.armci.put(
                    GlobalAddress(peer, base + ctx.rank), [ctx.rank + 1]
                )
        yield from ctx.armci.barrier(algorithm=algorithm)
        return ctx.region.read_many(base, ctx.nprocs)

    return main


def assert_all_puts_visible(results):
    for rank, values in enumerate(results):
        nprocs = len(results)
        expected = [r + 1 if r != rank else 0 for r in range(nprocs)]
        assert values == expected, f"rank {rank}"


class TestSemantics:
    @pytest.mark.parametrize("nprocs", [2, 3, 4, 8])
    def test_all_puts_complete_at_barrier_exit(self, make_cluster, nprocs):
        rt = make_cluster(nprocs=nprocs)
        assert_all_puts_visible(rt.run_spmd(all_to_all_put_program("nic")))

    @pytest.mark.parametrize("nprocs", [2, 3, 4, 8])
    def test_tree_variant(self, make_cluster, nprocs):
        rt = make_cluster(
            nprocs=nprocs, params=myrinet2000(nic_algorithm="tree")
        )
        assert_all_puts_visible(rt.run_spmd(all_to_all_put_program("nic")))

    @pytest.mark.parametrize("ppn", [2, 4])
    def test_multiple_ranks_per_node_fold_locally(self, make_cluster, ppn):
        rt = make_cluster(nprocs=8, procs_per_node=ppn)
        assert_all_puts_visible(rt.run_spmd(all_to_all_put_program("nic")))

    def test_repeated_barriers_with_interleaved_puts(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            peer = (ctx.rank + 1) % ctx.nprocs
            observed = []
            for round_no in range(5):
                yield from ctx.armci.put(
                    GlobalAddress(peer, base), [round_no + 1]
                )
                yield from ctx.armci.barrier(algorithm="nic")
                observed.append(ctx.region.read(base))
            return observed

        rt = make_cluster(nprocs=4)
        for values in rt.run_spmd(main):
            assert values == [1, 2, 3, 4, 5]

    def test_barrier_synchronizes_processes(self, make_cluster):
        def main(ctx):
            yield ctx.compute(50.0 * ctx.rank)
            entered = ctx.now
            yield from ctx.armci.barrier(algorithm="nic")
            return (entered, ctx.now)

        rt = make_cluster(nprocs=4)
        results = rt.run_spmd(main)
        assert min(r[1] for r in results) >= max(r[0] for r in results)

    def test_host_and_nic_barriers_interleave(self, make_cluster):
        """Alternating algorithms must not confuse either epoch counter."""

        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            peer = (ctx.rank + 1) % ctx.nprocs
            for round_no, algorithm in enumerate(("nic", "exchange", "nic")):
                yield from ctx.armci.put(
                    GlobalAddress(peer, base), [round_no + 1]
                )
                yield from ctx.armci.barrier(algorithm=algorithm)
            return ctx.region.read(base)

        rt = make_cluster(nprocs=4)
        assert rt.run_spmd(main) == [3, 3, 3, 3]

    def test_ga_sync_nic_mode(self, make_cluster):
        from repro.ga.sync import ga_sync

        def program(ctx):
            yield from ga_sync(ctx, "nic")
            return ctx.now

        rt = make_cluster(nprocs=4)
        assert all(t > 0 for t in rt.run_spmd(program))


class TestLazyConstruction:
    def test_engines_absent_without_nic_barrier(self, make_cluster):
        rt = make_cluster(nprocs=4)
        rt.run_spmd(all_to_all_put_program("exchange"))
        assert getattr(rt.fabric, "_nic_engines", None) is None

    def test_never_constructed_on_host_paths(self, make_cluster, monkeypatch):
        def boom(self, *args, **kwargs):
            raise AssertionError("NicEngine constructed on a host-only path")

        monkeypatch.setattr(engine_mod.NicEngine, "__init__", boom)
        for algorithm in ("exchange", "linear", "auto"):
            rt = make_cluster(nprocs=4)
            assert_all_puts_visible(
                rt.run_spmd(all_to_all_put_program(algorithm))
            )

    def test_engines_built_once_per_fabric(self, make_cluster):
        def main(ctx):
            yield from ctx.armci.barrier(algorithm="nic")
            yield from ctx.armci.barrier(algorithm="nic")

        rt = make_cluster(nprocs=4)
        rt.run_spmd(main)
        engines = rt.fabric._nic_engines
        assert sorted(engines) == [0, 1, 2, 3]
        for node, engine in engines.items():
            assert engine.node == node


class TestCost:
    def _barrier_time(self, make_cluster, nprocs, algorithm):
        def main(ctx):
            base = ctx.region.alloc(ctx.nprocs, initial=0)
            for peer in range(ctx.nprocs):
                if peer != ctx.rank:
                    yield from ctx.armci.put(GlobalAddress(peer, base), [1])
            t0 = ctx.now
            yield from ctx.armci.barrier(algorithm=algorithm)
            return ctx.now - t0

        rt = make_cluster(nprocs=nprocs)
        return max(rt.run_spmd(main))

    @pytest.mark.parametrize("nprocs", [8, 16])
    def test_nic_beats_host_exchange_at_scale(self, make_cluster, nprocs):
        nic = self._barrier_time(make_cluster, nprocs, "nic")
        host = self._barrier_time(make_cluster, nprocs, "exchange")
        assert nic < host, f"nic {nic:.1f}us vs host {host:.1f}us at {nprocs}"

    def test_deterministic_across_runs(self, make_cluster):
        times = []
        for _ in range(2):
            def main(ctx):
                yield from ctx.armci.barrier(algorithm="nic")
                return ctx.now

            rt = make_cluster(nprocs=8)
            times.append(rt.run_spmd(main))
        assert times[0] == times[1]


class TestFaults:
    def test_completes_under_seeded_drops(self, make_cluster):
        params = myrinet2000(
            faults=FaultPlan.uniform(drop_rate=0.05, dup_rate=0.02, seed=3)
        )
        rt = make_cluster(nprocs=4, params=params)
        assert_all_puts_visible(rt.run_spmd(all_to_all_put_program("nic")))
        assert rt.fabric.stats.retransmits >= 0  # reliable layer engaged

    def test_degrades_when_participant_dies_mid_barrier(self, make_cluster):
        plan = FaultPlan(crashes=(ProcessCrash(at_us=50.0, rank=3),), seed=7)
        params = myrinet2000(faults=plan)

        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            # Survivors enter after the victim died but before detection:
            # doorbells are posted, the victim's never arrives, and the
            # view change converts the wait into the degraded exchange.
            yield ctx.env.timeout(60.0)
            peer = (ctx.rank + 1) % ctx.nprocs
            yield from ctx.armci.put(GlobalAddress(peer, base), [1])
            yield from ctx.armci.barrier(algorithm="nic")
            return ctx.armci.stats.get("nic_degraded", 0)

        rt = make_cluster(nprocs=4, params=params)
        results = rt.run_spmd(main)
        assert results[3] is CRASHED
        survivors = [r for i, r in enumerate(results) if i != 3]
        assert all(isinstance(r, int) for r in survivors)
        assert sum(survivors) >= 1

    def test_degrades_immediately_after_view_change(self, make_cluster):
        plan = FaultPlan(crashes=(ProcessCrash(at_us=30.0, rank=3),), seed=7)
        params = myrinet2000(faults=plan)

        def main(ctx):
            # Wait until the detector has declared the victim, then ask
            # for the NIC barrier: it must not even post a doorbell.
            while ctx.membership.epoch == 0:
                yield ctx.env.timeout(20.0)
            yield from ctx.armci.barrier(algorithm="nic")
            return ctx.armci.stats.get("nic_degraded", 0)

        rt = make_cluster(nprocs=4, params=params)
        results = rt.run_spmd(main)
        survivors = [r for i, r in enumerate(results) if i != 3]
        assert all(r >= 1 for r in survivors)
        # The early-out path never constructed the engines.
        assert getattr(rt.fabric, "_nic_engines", None) is None

    def test_node_crash_shuts_down_nic(self, make_cluster):
        plan = FaultPlan(crashes=(ProcessCrash(at_us=50.0, node=3),), seed=7)
        params = myrinet2000(faults=plan)

        def main(ctx):
            yield ctx.env.timeout(60.0)
            yield from ctx.armci.barrier(algorithm="nic")
            return ctx.armci.stats.get("nic_degraded", 0)

        rt = make_cluster(nprocs=4, params=params)
        results = rt.run_spmd(main)
        survivors = [r for i, r in enumerate(results) if i != 3]
        assert all(isinstance(r, int) for r in survivors)
        engines = getattr(rt.fabric, "_nic_engines", None)
        if engines is not None:
            assert engines[3].dead
        assert rt.fabric.endpoint_dead(("nic", 3))


class TestEpochStateFreed:
    """An engine keeps an epoch's state while it owes a host a release and
    no longer; ``committed`` is what remembers the finished epochs."""

    @pytest.mark.parametrize("iterations", [1, 5])
    def test_no_state_outlives_its_releases(self, iterations):
        cfg = ScaleBenchConfig(iterations=iterations)
        rt = ClusterRuntime(32, params=myrinet2000())
        rt.run_spmd(scale_workload, "nic", cfg)
        engines = rt.fabric.nic_engines.values()
        assert len(engines) == 32
        assert sum(len(engine._epochs) for engine in engines) == 0
        assert all(engine.committed == set(range(iterations)) for engine in engines)

    def test_dead_nic_keeps_the_state_force_release_needs(self):
        """NIC 1 dies after its ``nic_commit`` and before it schedules a
        completion DMA: its two hosts sit in the barrier until the view
        change an unrelated death brings, and leave it by force."""

        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            peer = (ctx.rank + 2) % ctx.nprocs
            yield from ctx.armci.put(GlobalAddress(peer, base), [1])
            yield from ctx.armci.barrier(algorithm="nic")
            return ctx.now, ctx.armci.stats.get("nic_degraded", 0)

        def run(*crashes):
            monitor = SyncMonitor()
            plan = FaultPlan(crashes=crashes, seed=7)
            rt = ClusterRuntime(
                8, procs_per_node=2, params=myrinet2000(faults=plan), monitor=monitor
            )
            procs = rt.spawn(main)
            rt.run(until=rt.env.all_of(procs.values()))  # the detector never idles
            return rt, monitor, [procs[rank].value for rank in range(8)]

        # Same plan shape, death beyond the end of the run: when NIC 1 commits.
        rt, monitor, _results = run(ProcessCrash(at_us=1e12, rank=7))
        (commit,) = [
            ev for ev in monitor.events
            if ev.kind == "nic_commit" and ev.data["node"] == 1
        ]
        at_us = commit.time + rt.params.nic_proc_us / 2

        rt, monitor, results = run(
            ProcessCrash(at_us=at_us, nic=1), ProcessCrash(at_us=at_us, rank=7)
        )
        (view_change,) = [ev for ev in monitor.events if ev.kind == "view_change"]
        assert results[7] is CRASHED
        # Hosts of the dead NIC: released at the view change, not degraded.
        assert results[2] == results[3] == (view_change.time, 0)
        assert all(left < at_us + 10.0 for left, _degraded in results[:2] + results[4:7])
        forced = [
            ev.data["rank"] for ev in monitor.events
            if ev.kind == "nic_release" and ev.data.get("forced")
        ]
        assert forced == [2, 3]
        engines = rt.fabric.nic_engines
        assert engines[1].dead
        assert all(not engine._epochs for engine in engines.values())
        assert all(engine.committed == {0} for engine in engines.values())
        assert monitor.analyze().ok()
