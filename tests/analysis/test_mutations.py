"""Seeded-mutation tests: each protocol bug class must be detected.

Every test monkeypatches one deliberate bug into the runtime (a mutation
of the kind RMCSan exists to catch), runs a small workload under the
monitor, and asserts the analyzer reports the matching violation.  A
clean twin alongside the race mutation pins down that the detection is
the mutation's fault, not a false positive of the workload.
"""

from __future__ import annotations

import pytest

from repro.analysis import SyncMonitor
from repro.mp import collectives
from repro.net.params import myrinet2000
from repro.runtime import server as server_mod
from repro.runtime.cluster import ClusterRuntime
from repro.runtime import atomics


def sanitized_run(nprocs, main, *args, **runtime_kwargs):
    """Run ``main`` SPMD under a fresh monitor; return the analysis report."""
    runtime_kwargs.setdefault("params", myrinet2000())
    monitor = SyncMonitor()
    runtime = ClusterRuntime(nprocs, monitor=monitor, **runtime_kwargs)
    runtime.run_spmd(main, *args)
    return monitor.analyze()


class TestDoubleLockGrant:
    def test_always_granting_server_is_caught(self, monkeypatch):
        """A lock server that grants every request produces two holders."""

        def eager_grant(self, req):
            region = self._hosted_region(req.home_rank)
            ticket = atomics.fetch_and_add(region, req.base_addr, 1)
            yield from self._reply(req.src_rank, req.reply, value=ticket)

        monkeypatch.setattr(server_mod.ServerThread, "_handle_lock", eager_grant)

        def workload(ctx):
            from repro.locks.hybrid import HybridLock

            lock = HybridLock(ctx, home_rank=0)
            yield from lock.acquire()
            yield ctx.env.timeout(50.0)  # hold, so remote grants overlap
            yield from lock.release()

        report = sanitized_run(3, workload)
        assert report.counts.get("lock", 0) >= 1
        assert any(
            "while held by" in v.message
            for v in report.violations
            if v.kind == "lock"
        )


class TestOverCredit:
    def test_get_bumping_op_done_is_caught(self, monkeypatch):
        """op_done credited for a non-store op trips the credit ledger."""
        original = server_mod.ServerThread._handle_get

        def leaky_get(self, req):
            yield from original(self, req)
            self._bump_op_done(req.dst_rank)

        monkeypatch.setattr(server_mod.ServerThread, "_handle_get", leaky_get)

        def workload(ctx):
            addr = ctx.region.alloc_named("cell", 1, initial=ctx.rank)
            yield from collectives.barrier(ctx.comm)
            if ctx.rank == 0:
                value = yield from ctx.armci.get(ctx.ga(1, addr), 1)
                assert value == [1]

        report = sanitized_run(2, workload)
        assert report.counts.get("fence", 0) >= 1
        assert any(
            "without a matching" in v.message
            for v in report.violations
            if v.kind == "fence"
        )


class TestDroppedCredit:
    def test_server_never_crediting_is_caught(self, monkeypatch):
        """A server that forgets op_done leaves applied ops uncredited.

        The barrier's stage-2 watchdog keeps the run live (it falls back
        to the linear AllFence path), so the analyzer gets a complete
        trace and flags the missing credits at the end.
        """
        monkeypatch.setattr(
            server_mod.ServerThread, "_bump_op_done", lambda self, rank: None
        )

        def workload(ctx):
            addr = ctx.region.alloc_named("cell", 1, initial=0)
            yield from collectives.barrier(ctx.comm)
            peer = (ctx.rank + 1) % ctx.nprocs
            yield from ctx.armci.put(ctx.ga(peer, addr), [ctx.rank])
            yield from ctx.armci.barrier()

        report = sanitized_run(
            2, workload, params=myrinet2000().with_(watchdog_timeout_us=100.0)
        )
        assert report.counts.get("fence", 0) >= 1
        assert any(
            "dropped op_done credit" in v.message
            for v in report.violations
            if v.kind == "fence"
        )


class TestEarlyBarrierRelease:
    def test_skipping_stage2_is_caught(self, monkeypatch):
        """An ARMCI_Barrier without the op_done wait releases too early."""
        from repro.armci import barrier as barrier_mod

        def hasty_stage2(armci, total):
            # Stage 1 and stage 3 run; stage 2 never waits for local
            # completion.
            return total
            yield

        monkeypatch.setattr(barrier_mod, "_stage2", hasty_stage2)

        def workload(ctx):
            n = 256  # bulk put: the apply outlives the two log2(N) stages
            addr = ctx.region.alloc_named("block", n, initial=0)
            yield from collectives.barrier(ctx.comm)
            peer = (ctx.rank + 1) % ctx.nprocs
            yield from ctx.armci.put(ctx.ga(peer, addr), [ctx.rank] * n)
            yield from ctx.armci.barrier()

        report = sanitized_run(2, workload)
        assert report.counts.get("barrier", 0) >= 1
        assert any(
            "still un-applied" in v.message
            for v in report.violations
            if v.kind == "barrier"
        )


class TestRace:
    @staticmethod
    def _racy(ctx, synchronize):
        addr = ctx.region.alloc_named("cell", 1, initial=0)
        yield from collectives.barrier(ctx.comm)
        if ctx.rank == 0:
            yield from ctx.armci.put(ctx.ga(1, addr), [7])
            if synchronize:
                yield from ctx.armci.barrier()
        else:
            if synchronize:
                yield from ctx.armci.barrier()
            ctx.region.read(addr)
        yield from collectives.barrier(ctx.comm)

    def test_unordered_put_vs_read_is_caught(self):
        report = sanitized_run(2, self._racy, False)
        assert report.counts.get("data-race", 0) >= 1

    def test_barrier_ordered_twin_is_clean(self):
        report = sanitized_run(2, self._racy, True)
        assert report.ok(), report.render()
