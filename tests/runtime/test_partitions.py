"""Partition tolerance: quorum membership, freezing, fencing, and rejoin.

End-to-end coverage of the transient-fault machinery in
:mod:`repro.runtime.membership` through small SPMD programs:

* quorum rule: minority (and even-split) sides freeze instead of acting,
* corroborated suspicion: transport-level suspicions raised against a
  majority-side peer during a cut are discarded (the raiser is the
  partitioned one), minority peers are excluded reversibly,
* epoch fencing: a minority holder's release is rejected after its lease
  was revoked for the majority, and the rank re-acquires cleanly after
  the heal resync,
* concurrent view changes: crashes landing while a partition heals merge
  into a deterministic epoch sequence with no duplicate lease revocation,
* chaosbench partition mode and the crash-only no-op guarantee.
"""

import pytest

from repro.experiments.chaosbench import ChaosBenchConfig, run_chaosbench
from repro.locks import make_lock
from repro.net.faults import FaultPlan, Partition, ProcessCrash, ProcessStall
from repro.net.params import NetworkParams
from repro.runtime.cluster import ClusterRuntime
from repro.sim.core import CRASHED


def transient_params(*, partitions=(), pauses=(), crashes=(), seed=7, **overrides):
    plan = FaultPlan(
        partitions=tuple(
            Partition(nodes=nodes, from_us=f, until_us=u)
            for nodes, f, u in partitions
        ),
        pauses=tuple(
            ProcessStall(rank=r, from_us=f, until_us=u) for r, f, u in pauses
        ),
        crashes=tuple(ProcessCrash(at_us=t, rank=r) for r, t in crashes),
        seed=seed,
    )
    return NetworkParams(faults=plan, **overrides)


class TestQuorumRule:
    def test_minority_lacks_quorum_majority_keeps_it(self):
        params = transient_params(partitions=(((3,), 50.0, 400.0),))
        runtime = ClusterRuntime(4, params=params)
        probes = {}

        def program(ctx):
            yield ctx.env.timeout(100.0)  # inside the window
            probes[ctx.rank] = ctx.membership.quorum_ok(ctx.rank)
            yield ctx.env.timeout(500.0 - ctx.env.now)  # after the heal
            probes[("post", ctx.rank)] = ctx.membership.quorum_ok(ctx.rank)

        runtime.run_spmd(program)
        assert probes[0] and probes[1] and probes[2]
        assert not probes[3]
        assert all(probes[("post", r)] for r in range(4))

    def test_even_split_freezes_both_sides(self):
        # 2-2 cut: no strict majority anywhere, so neither side has quorum
        # and suspicions raised during the window are discarded, not acted
        # on — letting both halves proceed is exactly split-brain.
        params = transient_params(partitions=(((2, 3), 50.0, 400.0),))
        runtime = ClusterRuntime(4, params=params)
        probes = {}

        def program(ctx):
            yield ctx.env.timeout(100.0)
            probes[ctx.rank] = ctx.membership.quorum_ok(ctx.rank)
            if ctx.rank == 0:
                ctx.membership.suspect(("mp", 3), reason="test")
            yield ctx.env.timeout(500.0 - ctx.env.now)

        runtime.run_spmd(program)
        m = runtime.membership
        assert not any(probes[r] for r in range(4))
        assert m.suspicions_discarded >= 1
        assert m.dead_ranks() == ()
        assert not m._excluded

    def test_stalled_rank_lacks_quorum(self):
        params = transient_params(pauses=((2, 50.0, 300.0),))
        runtime = ClusterRuntime(4, params=params)
        probes = {}

        def program(ctx):
            yield ctx.env.timeout(100.0)
            probes[ctx.rank] = ctx.membership.quorum_ok(ctx.rank)

        runtime.run_spmd(program)
        assert probes[0] and probes[1] and probes[3]
        assert not probes[2]


class TestCorroboratedSuspicion:
    """Satellite fix: retry exhaustion against a peer must not declare it
    dead when the *raiser* is the partitioned-away party."""

    def test_suspicion_of_majority_peer_during_cut_is_discarded(self):
        params = transient_params(partitions=(((3,), 50.0, 400.0),))
        runtime = ClusterRuntime(4, params=params)

        def program(ctx):
            if ctx.rank == 3:
                # The minority rank's transport gives up on rank 0 — but a
                # quorum of peers still hears rank 0, so the suspicion says
                # more about the raiser than the target.
                yield ctx.env.timeout(100.0)
                ctx.membership.suspect(("mp", 0), reason="retries exhausted")
            yield ctx.env.timeout(500.0 - ctx.env.now)

        runtime.run_spmd(program)
        m = runtime.membership
        assert m.is_alive(0) and m.in_view(0)
        assert 0 not in m.declared_at
        assert m.suspicions_discarded >= 1

    def test_suspicion_of_minority_peer_excludes_reversibly(self):
        params = transient_params(partitions=(((3,), 50.0, 400.0),))
        runtime = ClusterRuntime(4, params=params)
        observed = {}

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.env.timeout(100.0)
                ctx.membership.suspect(("mp", 3), reason="retries exhausted")
                observed["mid"] = (
                    ctx.membership.is_alive(3),
                    ctx.membership.in_view(3),
                )
            yield ctx.env.timeout(500.0 - ctx.env.now)

        runtime.run_spmd(program)
        m = runtime.membership
        # Excluded — alive but out of the view — then rejoined at heal.
        assert observed["mid"] == (True, False)
        assert m.dead_ranks() == ()
        assert m.in_view(3)
        assert m.rejoined_at[3] == pytest.approx(400.0)

    def test_no_transient_plan_keeps_crash_stop_declaration(self):
        # Crash-only plans keep the original behavior: transport suspicion
        # declares immediately, no corroboration pass.
        params = transient_params(crashes=((2, 30.0),))
        runtime = ClusterRuntime(4, params=params)

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.env.timeout(50.0)
                ctx.membership.suspect(("mp", 2), reason="retries exhausted")
            yield ctx.env.timeout(400.0 - ctx.env.now)

        runtime.run_spmd(program)
        m = runtime.membership
        assert 2 in m.declared_at
        assert m.suspicions_discarded == 0


class TestFreezeAndHeal:
    def test_minority_sync_freezes_until_heal_majority_progresses(self):
        params = transient_params(partitions=(((2,), 50.0, 400.0),))
        runtime = ClusterRuntime(3, params=params)
        grants = []

        def program(ctx):
            lock = make_lock("naimi", ctx, home_rank=0, name="mx")
            yield ctx.env.timeout(100.0)  # all ranks request mid-window
            yield from lock.acquire()
            grants.append((ctx.env.now, ctx.rank))
            yield from lock.release()
            return ctx.env.now

        results = runtime.run_spmd(program)
        m = runtime.membership
        assert all(isinstance(r, float) for r in results)
        # The majority side was served during the window...
        majority = sorted(r for t, r in grants if t < 400.0)
        assert majority == [0, 1]
        # ...while the minority rank froze at the gate and was served after.
        assert [r for t, r in grants if t >= 400.0] == [2]
        frozen = [f for f in m.freeze_log if f["rank"] == 2]
        assert frozen and frozen[0]["unfrozen_at_us"] >= 400.0

    def test_heal_merges_views_deterministically(self):
        def run():
            params = transient_params(partitions=(((2,), 50.0, 400.0),))
            runtime = ClusterRuntime(3, params=params)

            def program(ctx):
                yield from ctx.armci.barrier()
                yield ctx.env.timeout(600.0 - ctx.env.now)
                yield from ctx.armci.barrier()

            runtime.run_spmd(program)
            return runtime.membership

        a, b = run(), run()
        assert a.report() == b.report()
        assert dict(a._views) == dict(b._views)
        assert a.heal_log and a.heal_log[0]["epoch"] == a.epoch

    def test_stalled_rank_rejoins_on_resume(self):
        params = transient_params(pauses=((2, 40.0, 500.0),))
        runtime = ClusterRuntime(4, params=params)

        def program(ctx):
            yield from ctx.armci.barrier()
            yield ctx.env.timeout(700.0 - ctx.env.now)
            yield from ctx.armci.barrier()
            return ctx.env.now

        results = runtime.run_spmd(program)
        m = runtime.membership
        assert all(isinstance(r, float) for r in results)
        assert m.dead_ranks() == ()
        # The paused rank was excluded by silence and readmitted at resume.
        if 2 in m.rejoined_at:
            assert m.rejoined_at[2] >= 500.0
        assert m.in_view(2)


class TestEpochFencing:
    def test_minority_holder_release_is_fenced_then_reacquires(self):
        params = transient_params(partitions=(((3,), 60.0, 600.0),))
        runtime = ClusterRuntime(4, params=params)
        grants = []
        locks = {}

        def program(ctx):
            lock = make_lock("naimi", ctx, home_rank=0, name="mx")
            locks[ctx.rank] = lock
            if ctx.rank == 3:
                yield from lock.acquire()
                grants.append(("acq", 3, ctx.env.now))
                # Hold across the cut: the lease is revoked for the
                # majority, so this release must be fence-rejected.
                yield ctx.env.timeout(200.0 - ctx.env.now)
                yield from lock.release()
                # After the heal + resync the rank uses the fresh token.
                yield ctx.env.timeout(700.0 - ctx.env.now)
                yield from lock.acquire()
                grants.append(("acq2", 3, ctx.env.now))
                yield from lock.release()
                return "rejoined"
            yield ctx.env.timeout(100.0)
            yield from lock.acquire()
            grants.append(("acq", ctx.rank, ctx.env.now))
            yield ctx.env.timeout(5.0)
            yield from lock.release()
            return "served"

        results = runtime.run_spmd(program)
        m = runtime.membership
        assert results == ["served", "served", "served", "rejoined"]
        # The stale holder's release never touched the protocol.
        assert locks[3].stats.counters.get("fenced_releases", 0) == 1
        # The majority was served through the regenerated token while the
        # cut was active, and the ex-holder's re-acquire came after heal.
        majority_grants = [t for op, r, t in grants if op == "acq" and r != 3]
        assert len(majority_grants) == 3 and max(majority_grants) < 600.0
        (reacquire,) = [t for op, r, t in grants if op == "acq2"]
        assert reacquire >= 600.0
        assert m.rejoined_at[3] == pytest.approx(600.0)

    def test_fence_token_bumped_once_per_revocation(self):
        params = transient_params(partitions=(((3,), 60.0, 600.0),))
        runtime = ClusterRuntime(4, params=params)

        def program(ctx):
            lock = make_lock("naimi", ctx, home_rank=0, name="mx")
            if ctx.rank == 3:
                yield from lock.acquire()
                yield ctx.env.timeout(300.0 - ctx.env.now)
                yield from lock.release()
            yield ctx.env.timeout(800.0 - ctx.env.now)

        runtime.run_spmd(program)
        m = runtime.membership
        assert m.fence_token(("naimi", "mx", 0)) == 1


class TestConcurrentViewChanges:
    """Two ranks crash while a partition heals: the epoch merge stays
    deterministic and the excluded holder's lease is revoked exactly once
    (the death declaration at heal finds it already gone)."""

    def _run(self):
        params = transient_params(
            partitions=(((4, 5), 100.0, 800.0),),
            crashes=((2, 750.0), (4, 760.0)),
            seed=13,
        )
        runtime = ClusterRuntime(6, params=params)

        def program(ctx):
            lock = make_lock("naimi", ctx, home_rank=0, name="mx")
            if ctx.rank == 4:
                yield from lock.acquire()  # holds across exclusion + death
                while True:
                    yield ctx.env.timeout(25.0)
            yield ctx.env.timeout(150.0)
            yield from lock.acquire()
            yield ctx.env.timeout(5.0)
            yield from lock.release()
            yield ctx.env.timeout(1500.0 - ctx.env.now)
            return ctx.env.now

        results = runtime.run_spmd(program)
        return runtime, results

    def test_epoch_merge_is_deterministic(self):
        (rt_a, res_a), (rt_b, res_b) = self._run(), self._run()
        assert rt_a.membership.report() == rt_b.membership.report()
        assert dict(rt_a.membership._views) == dict(rt_b.membership._views)
        assert [type(r) for r in res_a] == [type(r) for r in res_b]

    def test_crashed_while_excluded_declared_at_heal(self):
        runtime, results = self._run()
        m = runtime.membership
        assert results[2] is CRASHED and results[4] is CRASHED
        assert set(m.dead_ranks()) == {2, 4}
        assert not m._excluded
        # Rank 5 (cut but alive) rejoined; rank 4 (cut and crashed) did not.
        assert sorted(m.rejoined_at) == [5]
        assert m.heal_log[0]["rejoined"] == [5]
        # Survivors all finished after the merge.
        assert all(isinstance(results[r], float) for r in (0, 1, 3, 5))

    def test_no_duplicate_lease_revocation(self):
        runtime, _results = self._run()
        m = runtime.membership
        # The exclusion revoked rank 4's lease (live revocation); the death
        # declaration at heal must not fence the same lease again.
        assert m.fence_token(("naimi", "mx", 0)) == 1
        transient = [
            r
            for r in m.recovery_log
            if r["dead_rank"] == 4 and r.get("transient")
        ]
        assert len(transient) == 1


class TestChaosbenchPartitionMode:
    def test_partition_run_passes_all_checks(self):
        cfg = ChaosBenchConfig(
            nprocs=6,
            lock_kind="mcs",
            barrier_kills=(),
            lock_kills=(),
            partitions=(((4, 5), 200.0, 1400.0),),
        )
        res = run_chaosbench(cfg)
        assert res.all_ok(), res.render()
        assert res.checks["partition healed"] is True
        # Freeze/heal/rejoin telemetry is populated and consistent.
        frozen_ranks = {f["rank"] for f in res.freezes}
        assert frozen_ranks and frozen_ranks <= {4, 5}
        assert res.heals and res.heals[0]["rejoined"]
        assert {r["rank"] for r in res.rejoins} == set(
            res.heals[0]["rejoined"]
        )
        text = res.render()
        assert "frozen" in text and "heal:" in text

    def test_partition_plus_kill_composes(self):
        cfg = ChaosBenchConfig(
            nprocs=6,
            lock_kind="naimi",
            barrier_kills=(),
            lock_kills=((3, 900.0),),
            partitions=(((5,), 200.0, 1400.0),),
        )
        res = run_chaosbench(cfg)
        assert res.all_ok(), res.render()
        assert tuple(res.dead) == (3,)
        assert res.checks["partition healed"] is True

    def test_partition_mode_is_deterministic(self):
        cfg = ChaosBenchConfig(
            nprocs=6,
            lock_kind="naimi",
            barrier_kills=(),
            lock_kills=(),
            partitions=(((4,), 200.0, 1200.0),),
            stalls=((2, 300.0, 700.0),),
        )
        assert run_chaosbench(cfg).render() == run_chaosbench(cfg).render()

    def test_validation_rejects_illegal_windows(self):
        with pytest.raises(ValueError, match="node 0"):
            run_chaosbench(
                ChaosBenchConfig(partitions=(((0,), 10.0, 50.0),))
            )
        with pytest.raises(ValueError, match="majority"):
            run_chaosbench(
                ChaosBenchConfig(
                    nprocs=4,
                    barrier_kills=(),
                    lock_kills=(),
                    partitions=(((1, 2), 10.0, 50.0),),
                )
            )
        with pytest.raises(ValueError, match="rank"):
            run_chaosbench(ChaosBenchConfig(stalls=((0, 10.0, 50.0),)))


class TestCrashOnlyUnchanged:
    """With no transient windows the partition machinery must be inert."""

    def test_crash_only_plan_keeps_transient_paths_off(self):
        params = transient_params(crashes=((2, 50.0),))
        runtime = ClusterRuntime(4, params=params)
        m = runtime.membership
        assert m is not None and not m._transient

        def idle(ctx):
            yield ctx.env.timeout(400.0)

        runtime.run_spmd(idle)
        report = m.report()
        for key in ("excluded", "rejoins", "freezes", "heals"):
            assert key not in report

    def test_freeze_gate_is_a_noop_without_transients(self):
        params = transient_params(crashes=((2, 5000.0),))
        runtime = ClusterRuntime(4, params=params)

        def program(ctx):
            before = ctx.env.now
            yield from ctx.membership.freeze_gate(ctx.rank) or iter(())
            return ctx.env.now - before

        # freeze_gate returns immediately (no yields) for crash-only plans.
        gen = runtime.membership.freeze_gate(0)
        assert gen is None or list(gen or ()) == []
