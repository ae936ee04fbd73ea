"""The workload oracle's rules, one case each: ``LockAudit``'s mutual
exclusion, preemption and fenced-exit rules, its FIFO judge against the
order the lock linearised the requests, its rank filters,
``fifo_judged`` and the post-barrier ``audit_slots`` rule."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.locks import CS_US, LOCK_STAGGER_US, LockAudit, fifo_judged, make_lock
from repro.net.faults import FaultPlan
from repro.net.params import myrinet2000
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import audit_slots


def handle(rank, pred=None, own=None):
    """A lock-handle stand-in: its rank and its :meth:`queue_link`."""
    return SimpleNamespace(ctx=SimpleNamespace(rank=rank), queue_link=lambda: (pred, own))


class View:
    """A membership stand-in: ``in_view`` is membership of ``ranks``."""

    def __init__(self, *ranks):
        self.ranks = set(ranks)

    def in_view(self, rank):
        return rank in self.ranks


class TestLockAudit:
    def test_grant_over_an_in_view_holder_breaks_mutual_exclusion(self):
        # Rank 1 may be scripted to die, but until the view drops it, a grant
        # over it is two live holders, not a preemption.
        audit = LockAudit()
        audit.enter(10.0, handle(1), -1, View(0, 1, 2))
        audit.enter(20.0, handle(2), 0, View(0, 1, 2))
        assert not audit.mutex_ok
        assert audit.preemptions == []

    def test_grant_over_an_out_of_view_holder_is_a_preemption(self):
        audit = LockAudit()
        audit.enter(10.0, handle(1), -1, View(0, 1, 2))
        audit.enter(20.0, handle(2), 0, View(0, 2))
        assert audit.mutex_ok
        assert audit.preemptions == [
            {"at_us": 20.0, "dead_holder": 1, "granted_to": 2}
        ]
        assert audit.cs_owner == 2

    def test_fenced_holders_stale_exit_is_not_a_breach(self):
        audit = LockAudit()
        audit.enter(10.0, handle(1), 0, View(0, 1, 2))
        audit.enter(20.0, handle(2), 0, View(0, 2))
        audit.leave(1, View(0, 2))  # rank 1 is fenced: its exit is stale
        assert audit.mutex_ok and audit.cs_owner == 2
        audit.leave(2, View(0, 2))
        assert audit.mutex_ok and audit.cs_owner is None

    def test_in_view_holder_finding_its_cell_taken_is_a_breach(self):
        audit = LockAudit()
        audit.enter(10.0, handle(1), 0, View(0, 1, 2))
        audit.enter(20.0, handle(2), 0, View(0, 2))
        audit.leave(1, View(0, 1, 2))  # back in view: someone entered its CS
        assert not audit.mutex_ok and audit.cs_owner is None

    def test_fifo_ok_and_granted_filter_by_ranks(self):
        # Tickets 0, 1, 2 went to ranks 1, 2, 3; rank 2 was granted first.
        audit = LockAudit()
        for t, (rank, ticket) in enumerate(((2, 1), (1, 0), (3, 2))):
            audit.enter(10.0 + t, handle(rank, ticket - 1, ticket), 0, None)
            audit.leave(rank, None)
        assert audit.granted({1, 3}) == [(1, 0), (3, 0)]
        assert audit.linearized({1, 2, 3}) == [(1, 0), (2, 0), (3, 0)]
        assert audit.fifo_ok({1, 3})
        assert not audit.fifo_ok({1, 2, 3})
        assert audit.mutex_ok


def _contended(kind, nprocs=3, iters=2):
    """Each rank takes the lock ``iters`` times under one audit, staggered
    as the audited workloads are; returns the audit."""
    audit = LockAudit()

    def main(ctx):
        lock = make_lock(kind, ctx, home_rank=0, name="audit")
        yield LOCK_STAGGER_US * (nprocs - ctx.rank) / 8
        for it in range(iters):
            yield from lock.acquire()
            audit.enter(ctx.env.now, lock, it, None)
            yield CS_US
            audit.leave(ctx.rank, None)
            yield from lock.release()

    ppn = nprocs if kind in ("ticket", "lh") else 1
    ClusterRuntime(nprocs, procs_per_node=ppn, params=myrinet2000()).run_spmd(main)
    return audit


class TestLinearisationOrder:
    @pytest.mark.parametrize("kind", ["ticket", "lh", "server", "hybrid", "mcs"])
    def test_a_fifo_lock_grants_in_its_own_linearisation_order(self, kind):
        audit = _contended(kind)
        everyone = {0, 1, 2}
        assert len(audit.grants) == 6 and audit.mutex_ok
        assert audit.linearized(everyone) == audit.granted(everyone)
        # The judge has evidence: all but the chain heads queued behind a
        # grant (MCS starts a new chain whenever its queue empties).
        linked = sum(1 for pred, _own in audit.links if pred is not None)
        assert linked >= 3

    @pytest.mark.parametrize("kind", ["ticket", "lh", "mcs"])
    def test_grants_that_invert_the_linearisation_order_are_caught(self, kind):
        # The mutant: the same requests, linearised by a real run, granted
        # with one waiter served ahead of the request it queued behind —
        # one whose token no earlier grant published, so the evidence
        # names it alone (an MCS rank reuses its node on every request).
        real = _contended(kind)
        j = next(
            j
            for j in range(1, len(real.grants))
            if real.grants[j][1] != real.grants[j - 1][1]
            and real.links[j][0] == real.links[j - 1][1]
            and real.links[j - 1][1] not in [own for _p, own in real.links[: j - 1]]
        )
        order = list(range(len(real.grants)))
        order[j - 1], order[j] = order[j], order[j - 1]
        mutant = LockAudit()
        for k in order:
            _t, rank, it = real.grants[k]
            pred, own = real.links[k]
            mutant.enter(float(k), handle(rank, pred, own), it, None)
            mutant.leave(rank, None)
        everyone = {0, 1, 2}
        assert mutant.linearized(everyone) == real.granted(everyone)
        assert not mutant.fifo_ok(everyone)

    def test_a_waiter_behind_a_dead_requester_starts_a_chain(self):
        # MCS: rank 2 swapped behind rank 1's node, rank 1 died queued.
        audit = LockAudit()
        audit.enter(1.0, handle(0, None, "n0"), 0, None)
        audit.enter(2.0, handle(2, "n1", "n2"), 0, None)
        assert audit.linearized({0, 2}) == [(0, 0), (2, 0)]
        assert audit.fifo_ok({0, 2})

    def test_an_lh_cell_the_claimant_recycles_is_not_its_predecessor(self):
        # Rank 1 spun on cell "c" that a dead rank published, took it over
        # and published it again on its next request; rank 0 then queued
        # behind that.
        audit = LockAudit()
        audit.enter(1.0, handle(1, "c", "a"), 0, None)
        audit.enter(2.0, handle(1, "x", "c"), 1, None)
        audit.enter(3.0, handle(0, "c", "y"), 0, None)
        assert audit.linearized({0, 1}) == [(1, 0), (1, 1), (0, 0)]
        assert audit.fifo_ok({0, 1})


class TestFifoJudged:
    def test_fifo_kind_on_a_quiet_plan(self):
        assert fifo_judged("mcs", FaultPlan(), stuck=False)

    def test_each_exemption(self):
        assert not fifo_judged("naimi", FaultPlan(), stuck=False)
        assert not fifo_judged("mcs", FaultPlan(), stuck=True)
        assert not fifo_judged("mcs", FaultPlan.uniform(drop_rate=0.1), stuck=False)
        assert not fifo_judged(
            "mcs", FaultPlan.scripted(stalls=[(1, 10.0, 20.0)]), stuck=False
        )


class TestAuditSlots:
    def _ctx(self, cells, view):
        return SimpleNamespace(
            nprocs=3,
            rank=0,
            membership=view,
            region=SimpleNamespace(read_many=lambda addr, n: cells[addr : addr + n]),
        )

    def test_live_peers_must_hold_want_and_dead_slots_must_be_whole(self):
        def want(peer):
            return 100 * (peer + 1)

        def allowed(peer):
            return {0, want(peer)}

        # Rank 0's own slot, rank 1's two cells, rank 2's two cells.
        cells = [0, 0, 200, 200, 0, 0]
        assert audit_slots(self._ctx(cells, View(0, 1)), 0, 2, want, allowed) == (
            True,
            True,
            [[1, [200, 200]], [2, [0, 0]]],
        )
        torn = [0, 0, 200, 200, 300, 0]
        assert audit_slots(self._ctx(torn, View(0, 1)), 0, 2, want, allowed)[:2] == (
            True,
            False,
        )
        missing = [0, 0, 200, 0, 300, 300]
        assert audit_slots(self._ctx(missing, None), 0, 2, want, allowed)[:2] == (
            False,
            True,
        )
