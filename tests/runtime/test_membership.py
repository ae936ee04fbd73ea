"""Crash-stop membership: detection, lock recovery, degraded barriers.

Covers the crash-stop subsystem end to end through small SPMD programs:

* failure detection (heartbeat silence) with deterministic latency,
* lease-based holder-death recovery on every lock flavor, with FIFO
  preserved among survivors,
* the combined barrier completing when a participant dies before
  entering (stage i) and while blocked inside the exchange (stage ii),
* a double crash (holder plus its queue successor),
* chaosbench determinism under a fixed kill seed,
* the guard property: with no crashes planned the membership service is
  never constructed and experiment output is byte-identical.
"""

import pytest

from repro.experiments.chaosbench import (
    ChaosBenchConfig,
    FIFO_KINDS,
    run_chaosbench,
)
from repro.locks import make_lock
from repro.net.faults import FaultPlan, LinkFaults, ProcessCrash
from repro.net.params import NetworkParams
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress
from repro.sim.core import CRASHED

ALL_KINDS = ("ticket", "lh", "server", "hybrid", "mcs", "naimi", "raymond")


def crash_params(*crashes, seed=7, **overrides):
    plan = FaultPlan(
        crashes=tuple(ProcessCrash(at_us=t, rank=r) for r, t in crashes),
        seed=seed,
    )
    return NetworkParams(faults=plan, **overrides)


class TestDetection:
    def test_idle_rank_declared_by_heartbeat_silence(self):
        params = crash_params((2, 50.0))
        runtime = ClusterRuntime(4, params=params)

        def idle(ctx):
            yield ctx.env.timeout(500.0)
            return ctx.membership.dead_ranks()

        results = runtime.run_spmd(idle)
        m = runtime.membership
        assert m is not None
        assert m.dead_ranks() == (2,)
        assert results[2] is CRASHED
        assert results[0] == (2,)
        latency = m.declared_at[2] - m.crashed_at[2]
        assert m.crashed_at[2] == pytest.approx(50.0)
        # Silence is noticed within the suspect timeout plus one detector
        # scan plus one heartbeat interval of slack.
        assert (
            params.suspect_timeout_us
            < latency
            <= params.suspect_timeout_us
            + params.membership_check_us
            + params.heartbeat_us
        )

    def test_view_epochs_record_each_death(self):
        params = crash_params((1, 40.0), (3, 200.0))
        runtime = ClusterRuntime(4, params=params)

        def idle(ctx):
            yield ctx.env.timeout(600.0)

        runtime.run_spmd(idle)
        m = runtime.membership
        assert m.epoch == 2
        assert m.view(0) == (0, 1, 2, 3)
        assert m.view(1) == (0, 2, 3)
        assert m.view(2) == (0, 2)

    def test_membership_absent_without_crash_plan(self):
        runtime = ClusterRuntime(2)
        assert runtime.membership is None

        def noop(ctx):
            yield ctx.env.timeout(1.0)
            return ctx.membership

        assert runtime.run_spmd(noop) == [None, None]


def lock_recovery_cfg(kind, **overrides):
    defaults = dict(
        nprocs=6,
        lock_kind=kind,
        barrier_kills=(),
        lock_kills=((5, 900.0),),
        lock_iters=2,
    )
    defaults.update(overrides)
    return ChaosBenchConfig(**defaults)


class TestLockRecovery:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_holder_death_recovers_every_flavor(self, kind):
        res = run_chaosbench(lock_recovery_cfg(kind))
        failed = {k for k, v in res.checks.items() if v is False}
        assert not failed, f"{kind}: failed checks {failed}\n{res.render()}"
        # The dead holder's lease was revoked and observed by a survivor.
        assert any(p["dead_holder"] == 5 for p in res.preemptions)
        # Recovery completed for the killed holder.
        assert all(
            r["recovery_latency_us"] is not None for r in res.recoveries
        )

    @pytest.mark.parametrize("kind", FIFO_KINDS)
    def test_fifo_preserved_among_survivors(self, kind):
        res = run_chaosbench(lock_recovery_cfg(kind))
        assert res.checks["fifo among survivors"] is True

    @pytest.mark.parametrize("kind", ("hybrid", "mcs", "naimi"))
    def test_double_crash_holder_and_successor(self, kind):
        cfg = lock_recovery_cfg(
            kind, lock_kills=((4, 900.0), (5, 950.0))
        )
        res = run_chaosbench(cfg)
        failed = {k for k, v in res.checks.items() if v is False}
        assert not failed, f"{kind}: failed checks {failed}\n{res.render()}"
        assert set(res.dead) == {4, 5}
        # The first victim held the lock; the second died queued behind it.
        assert any(p["dead_holder"] == 4 for p in res.preemptions)


class TestDeadWaiterBehindLiveHolder:
    """Regression: a dead shm-spinning waiter queued *behind* a live holder
    must have its ticket revoked even though the contiguous head scan stops
    at the live holder's ticket — otherwise the release passes the counter
    straight onto the dead ticket and every survivor behind it wedges."""

    @pytest.mark.parametrize("kind", ("ticket", "hybrid"))
    def test_release_skips_dead_ticket_behind_live_holder(self, kind):
        params = crash_params((1, 60.0))
        runtime = ClusterRuntime(4, procs_per_node=4, params=params)
        grants = []

        def program(ctx):
            lock = make_lock(kind, ctx, home_rank=0, name="mx")
            if ctx.rank == 0:
                yield from lock.acquire()
                # Hold across the waiter's death, declaration, and recovery.
                while 1 not in ctx.membership.dead_ranks():
                    yield ctx.env.timeout(10.0)
                yield ctx.env.timeout(50.0)
                yield from lock.release()
                return "released"
            if ctx.rank == 1:
                yield ctx.env.timeout(10.0)
                yield from lock.acquire()  # killed while spinning
                return "unreachable"
            yield ctx.env.timeout(20.0 + ctx.rank)
            yield from lock.acquire()
            grants.append((ctx.env.now, ctx.rank))
            yield from lock.release()
            return "granted"

        results = runtime.run_spmd(program)
        assert results[1] is CRASHED
        assert results[0] == "released"
        assert results[2] == results[3] == "granted"
        # Survivor FIFO preserved: rank 2 took its ticket before rank 3.
        assert [r for _, r in sorted(grants)] == [2, 3]
        # The dead rank's ticket (1) was revoked even though the head scan
        # stopped at the live holder's ticket (0).
        m = runtime.membership
        revoked = set().union(*m._revoked_tickets.values())
        assert 1 in revoked


class TestMcsMidReleaseRecovery:
    """Regression: a holder killed in phase 'releasing' (after entering
    _release() but before the handoff/CAS completed) must still be
    ghost-released; previously recovery returned without repair."""

    def test_killed_before_handoff_reaches_successor(self):
        params = crash_params((0, 502.0))
        runtime = ClusterRuntime(3, params=params)

        def program(ctx):
            lock = make_lock("mcs", ctx, home_rank=0, name="mx")
            if ctx.rank == 0:
                yield from lock.acquire()
                yield ctx.env.timeout(500.0 - ctx.env.now)
                yield from lock.release()  # killed inside the release
                return "unreachable"
            if ctx.rank == 1:
                yield ctx.env.timeout(20.0)
                yield from lock.acquire()  # queued behind rank 0
                granted = ctx.env.now
                yield from lock.release()
                return granted
            yield ctx.env.timeout(1.0)
            return None

        results = runtime.run_spmd(program)
        m = runtime.membership
        assert results[0] is CRASHED
        # The victim died inside its release, not while holding or idle.
        handles = m._locks[("mcs", "mx", 0)]["handles"]
        assert handles[0]._phase == "releasing"
        # The successor was granted by crash recovery, after declaration.
        assert results[1] > m.declared_at[0]

    def test_killed_mid_cas_with_no_successor(self):
        # Home on rank 1: the uncontended-release CAS is a remote round
        # trip, so the kill lands between entering _release() and the CAS
        # taking effect; a later acquirer must find the lock repaired.
        params = crash_params((0, 502.0))
        runtime = ClusterRuntime(3, params=params)

        def program(ctx):
            lock = make_lock("mcs", ctx, home_rank=1, name="mx")
            if ctx.rank == 0:
                yield from lock.acquire()
                yield ctx.env.timeout(500.0 - ctx.env.now)
                yield from lock.release()  # killed mid-CAS
                return "unreachable"
            if ctx.rank == 1:
                yield ctx.env.timeout(800.0)  # after declaration + recovery
                yield from lock.acquire()
                granted = ctx.env.now
                yield from lock.release()
                return granted
            yield ctx.env.timeout(1.0)
            return None

        results = runtime.run_spmd(program)
        m = runtime.membership
        assert results[0] is CRASHED
        handles = m._locks[("mcs", "mx", 1)]["handles"]
        assert handles[0]._phase == "releasing"
        assert isinstance(results[1], float)


class TestStaleTokenDropped:
    """Regression: a token still in flight when recovery regenerates it
    must be discarded on arrival (it would otherwise create a second
    holder — or a protocol error granting with no pending request)."""

    def test_naimi_regenerated_token_supersedes_in_flight_copy(self):
        # The token 0 -> 1 rides a link with a deterministic 600us delay
        # spike, so it is still in the fabric when an unrelated rank's
        # death triggers token-lock recovery.
        plan = FaultPlan(
            links=(((0, 1), LinkFaults(delay_rate=1.0, delay_spike_us=600.0)),),
            crashes=(ProcessCrash(at_us=100.0, rank=2),),
            seed=11,
        )
        runtime = ClusterRuntime(4, params=NetworkParams(faults=plan))
        locks = {}

        def program(ctx):
            lock = make_lock("naimi", ctx, home_rank=0, name="mx")
            locks[ctx.rank] = lock
            if ctx.rank == 1:
                yield ctx.env.timeout(10.0)
                yield from lock.acquire()  # granted via regeneration
                yield ctx.env.timeout(5.0)
                yield from lock.release()
            if ctx.rank == 3:
                yield ctx.env.timeout(900.0)  # after the stale copy landed
                yield from lock.acquire()  # the lock must still work
                yield from lock.release()
            yield ctx.env.timeout(1000.0 - ctx.env.now)
            return ctx.env.now

        results = runtime.run_spmd(program)
        assert results[2] is CRASHED
        # The in-flight pre-crash token arrived after regeneration and was
        # dropped instead of creating a second holder.
        assert locks[1].stats.counters.get("stale_tokens_dropped", 0) == 1
        # Recovery did regenerate (the token was neither held nor queued).
        assert any(
            r["kind"] == "naimi" for r in runtime.membership.recovery_log
        )


class TestBarrierUnderCrash:
    def _run(self, kill_at_us, hold_us):
        cfg = ChaosBenchConfig(
            nprocs=6,
            barrier_kills=((3, kill_at_us),),
            lock_kills=(),
            barrier_hold_us=hold_us,
            lock_iters=1,
        )
        return run_chaosbench(cfg)

    def test_participant_dies_before_entering(self):
        # Stage (i): the victim is killed at 5us, long before it reaches
        # the barrier call; survivors enter against an already-stale view.
        res = self._run(kill_at_us=5.0, hold_us=400.0)
        assert res.all_ok(), res.render()

    def test_participant_dies_mid_exchange(self):
        # Stage (ii): the victim enters the exchange first and is killed
        # while blocked inside it; survivors join before the declaration
        # and must restart on the view change.
        res = self._run(kill_at_us=60.0, hold_us=150.0)
        assert res.all_ok(), res.render()

    def test_survivors_memory_complete(self):
        res = self._run(kill_at_us=60.0, hold_us=150.0)
        assert res.checks["survivor memory"] is True

    def test_write_off_when_victim_ops_lost(self):
        """A rank killed with issued-but-unapplied ops: survivors' stage-2
        targets are reduced by the written-off credits (no deadlock)."""
        params = crash_params((1, 1.0), seed=3)
        runtime = ClusterRuntime(4, params=params)

        def program(ctx):
            base = ctx.region.alloc_named("wo.slots", ctx.nprocs, initial=0)
            if ctx.rank == 1:
                # Issue a put whose completion the crash may strand, then
                # spin so the kill finds us alive.
                yield from ctx.armci.put(GlobalAddress(0, base + 1), [11])
                while True:
                    yield ctx.env.timeout(1.0)
            yield ctx.env.timeout(50.0)
            yield from ctx.armci.put(GlobalAddress((ctx.rank + 1) % 4, base), [7])
            yield from ctx.armci.barrier()
            return ctx.env.now

        results = runtime.run_spmd(program)
        assert results[1] is CRASHED
        assert all(isinstance(r, float) for i, r in enumerate(results) if i != 1)


class TestChaosBenchDeterminism:
    def test_same_seed_same_report(self):
        cfg = ChaosBenchConfig(kill_seed=99)
        first = run_chaosbench(cfg)
        second = run_chaosbench(cfg)
        assert first.render() == second.render()
        assert first.detections == second.detections
        assert first.survivor_grants == second.survivor_grants

    def test_different_seed_moves_detection(self):
        a = run_chaosbench(ChaosBenchConfig(kill_seed=1))
        b = run_chaosbench(ChaosBenchConfig(kill_seed=2))
        # Same kills, different heartbeat jitter: declarations may shift.
        assert a.all_ok() and b.all_ok()
        assert {d["rank"] for d in a.detections} == {
            d["rank"] for d in b.detections
        }


class TestDisabledMeansAbsent:
    """With no crashes planned, the crash paths must not even construct."""

    def test_faultbench_output_byte_identical(self):
        # FaultPlan with faults but no crashes: membership stays None.
        from repro.experiments.faultbench import FaultBenchConfig, run_faultbench

        cfg = FaultBenchConfig(
            nprocs=4, epochs=1, puts_per_peer=1, cells=2, drop_rates=(0.0, 0.02)
        )
        assert run_faultbench(cfg).render() == run_faultbench(cfg).render()

    def test_empty_crash_plan_keeps_membership_off(self):
        params = NetworkParams(faults=FaultPlan(seed=5))
        runtime = ClusterRuntime(2, params=params)
        assert runtime.membership is None


class TestCrashOverlapIdempotency:
    """Overlapping crash entries resolve deterministically at kill time."""

    def _prog(self, ctx):
        addr = ctx.region.alloc_named("c", 1, initial=0)
        peer = (ctx.rank + 1) % ctx.nprocs
        yield from ctx.armci.put(ctx.ga(peer, addr), [ctx.rank])
        if ctx.env.now < 200.0:
            yield ctx.env.timeout(200.0 - ctx.env.now)
        yield from ctx.armci.barrier()
        return ctx.env.now

    def test_node_crash_after_one_of_its_ranks_died(self):
        # ppn=2: ranks (2, 3) live on node 1.  Rank 2 dies at 40us, the
        # whole node at 90us; the node kill must no-op on the dead rank
        # and still take rank 3 and the server down.
        plan = FaultPlan(
            crashes=(
                ProcessCrash(at_us=40.0, rank=2),
                ProcessCrash(at_us=90.0, node=1),
            ),
            seed=9,
        )
        runtime = ClusterRuntime(
            6, procs_per_node=2, params=NetworkParams(faults=plan)
        )
        results = runtime.run_spmd(self._prog)
        m = runtime.membership
        assert results[2] is CRASHED and results[3] is CRASHED
        assert set(m.dead_ranks()) == {2, 3}
        assert m.crashed_at[2] == 40.0  # the earlier rank kill won
        assert m.crashed_at[3] == 90.0
        assert m.node_dead(1)
        assert all(isinstance(results[r], float) for r in (0, 1, 4, 5))

    def test_rank_crash_after_its_node_died_is_a_noop(self):
        plan = FaultPlan(
            crashes=(
                ProcessCrash(at_us=40.0, node=1),
                ProcessCrash(at_us=90.0, rank=2),
            ),
            seed=9,
        )
        runtime = ClusterRuntime(
            6, procs_per_node=2, params=NetworkParams(faults=plan)
        )
        results = runtime.run_spmd(self._prog)
        m = runtime.membership
        assert set(m.dead_ranks()) == {2, 3}
        assert m.crashed_at[2] == 40.0  # node kill, not the later entry
        assert results[2] is CRASHED

    def test_double_node_crash_entries_normalize(self):
        plan = FaultPlan(
            crashes=(
                ProcessCrash(at_us=120.0, node=1),
                ProcessCrash(at_us=40.0, node=1),
            ),
            seed=9,
        )
        assert plan.crashes == (ProcessCrash(at_us=40.0, node=1),)


class TestNicOnlyCrash:
    """A dead NIC co-processor: silent device, suspicion escalates."""

    def _params(self, at_us=30.0, node=2):
        plan = FaultPlan(crashes=(ProcessCrash(at_us=at_us, nic=node),), seed=5)
        return NetworkParams(faults=plan, retry_timeout_us=30.0, max_retries=4)

    def _prog(self, ctx):
        addr = ctx.region.alloc_named("c", 1, initial=0)
        peer = (ctx.rank + 1) % ctx.nprocs
        yield from ctx.armci.put(ctx.ga(peer, addr), [ctx.rank])
        yield from ctx.armci.barrier(algorithm="nic")
        yield from ctx.armci.barrier(algorithm="nic")
        return ctx.env.now

    def test_mid_exchange_nic_crash_escalates_and_survivors_finish(self):
        runtime = ClusterRuntime(4, params=self._params())
        results = runtime.run_spmd(self._prog)
        m = runtime.membership
        # The hosted rank was fail-stopped by the escalated suspicion...
        assert results[2] is CRASHED
        assert m.dead_ranks() == (2,)
        assert m.nic_dead(2)
        # ...and every survivor degraded to the host exchange and finished.
        assert all(isinstance(results[r], float) for r in (0, 1, 3))
        for rank in (0, 1, 3):
            assert runtime.armcis[rank].stats.get("nic_degraded", 0) >= 1
        # Frames to the silent NIC were swallowed unACKed, not refused.
        assert runtime.fabric.stats.blackholed > 0
        assert runtime.fabric.stats.links_declared_dead >= 1

    def test_idle_nic_crash_degrades_next_barrier_locally(self):
        # The NIC dies long before the first offloaded barrier: the local
        # host must notice the dead doorbell immediately and degrade.
        plan = FaultPlan(crashes=(ProcessCrash(at_us=1.0, nic=1),), seed=5)
        params = NetworkParams(faults=plan, retry_timeout_us=30.0, max_retries=4)
        runtime = ClusterRuntime(3, params=params)

        def prog(ctx):
            yield ctx.env.timeout(50.0)  # let the kill fire first
            yield from ctx.armci.barrier(algorithm="nic")
            return ctx.env.now

        results = runtime.run_spmd(prog)
        m = runtime.membership
        assert results[1] is CRASHED  # escalated once peers went silent
        assert runtime.armcis[1].stats.get("nic_degraded", 0) >= 1
        assert all(isinstance(results[r], float) for r in (0, 2))

    def test_nic_crash_without_nic_traffic_is_harmless(self):
        # Host-path workload never touches the NIC: nobody detects the
        # dead co-processor and every rank finishes normally.
        plan = FaultPlan(crashes=(ProcessCrash(at_us=30.0, nic=2),), seed=5)
        runtime = ClusterRuntime(4, params=NetworkParams(faults=plan))

        def prog(ctx):
            addr = ctx.region.alloc_named("c", 1, initial=0)
            peer = (ctx.rank + 1) % ctx.nprocs
            yield from ctx.armci.put(ctx.ga(peer, addr), [ctx.rank])
            yield from ctx.armci.barrier()
            return ctx.env.now

        results = runtime.run_spmd(prog)
        m = runtime.membership
        assert all(isinstance(r, float) for r in results)
        assert m.dead_ranks() == ()
        assert m.nic_dead(2)


class TestCrashedMachineFallsSilent:
    """A machine crash ends the retransmissions of the node's own senders:
    its server's replies and its NIC's frames, not only its ranks'."""

    @staticmethod
    def _reply_in_flight(crash):
        # Node 1's server answers rank 0 over a 90 %-lossy link; the first
        # copy is lost, so only a retransmission could deliver it.
        plan = FaultPlan(
            default=LinkFaults(drop_rate=0.9),
            crashes=(ProcessCrash(at_us=5.0, node=1),) if crash else (),
            seed=0,
        )
        runtime = ClusterRuntime(2, params=NetworkParams(faults=plan))
        env = runtime.env
        reply = env.event()
        landed = []
        reply.callbacks.append(lambda _ev: landed.append(env.now))
        runtime.fabric.post_reply(1, 0, reply, "ghost")

        def idle(ctx):
            yield 3000.0

        results = runtime.run_spmd(idle)
        return runtime, results, landed

    def test_dead_server_reply_is_not_retransmitted(self):
        runtime, results, landed = self._reply_in_flight(crash=True)
        assert results[1] is CRASHED and runtime.membership.node_dead(1)
        assert landed == []
        assert runtime.fabric.stats.retransmits == 0
        assert runtime.fabric.reliable.in_flight() == 0

    def test_live_server_reply_lands_by_retransmission(self):
        runtime, _results, landed = self._reply_in_flight(crash=False)
        assert landed == [pytest.approx(907.384)]
        assert runtime.fabric.stats.retransmits > 0
