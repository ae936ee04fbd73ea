"""The workload oracle's rules, one case each: ``LockAudit``'s mutual
exclusion, preemption and fenced-exit rules, its rank filters,
``fifo_judged`` and the post-barrier ``audit_slots`` rule."""

from __future__ import annotations

from types import SimpleNamespace

from repro.locks import LockAudit, fifo_judged
from repro.net.faults import FaultPlan
from repro.runtime.memory import audit_slots


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
        audit.enter(10.0, 1, -1, View(0, 1, 2))
        audit.enter(20.0, 2, 0, View(0, 1, 2))
        assert not audit.mutex_ok
        assert audit.preemptions == []

    def test_grant_over_an_out_of_view_holder_is_a_preemption(self):
        audit = LockAudit()
        audit.enter(10.0, 1, -1, View(0, 1, 2))
        audit.enter(20.0, 2, 0, View(0, 2))
        assert audit.mutex_ok
        assert audit.preemptions == [
            {"at_us": 20.0, "dead_holder": 1, "granted_to": 2}
        ]
        assert audit.cs_owner == 2

    def test_fenced_holders_stale_exit_is_not_a_breach(self):
        audit = LockAudit()
        audit.enter(10.0, 1, 0, View(0, 1, 2))
        audit.enter(20.0, 2, 0, View(0, 2))
        audit.leave(1, View(0, 2))  # rank 1 is fenced: its exit is stale
        assert audit.mutex_ok and audit.cs_owner == 2
        audit.leave(2, View(0, 2))
        assert audit.mutex_ok and audit.cs_owner is None

    def test_in_view_holder_finding_its_cell_taken_is_a_breach(self):
        audit = LockAudit()
        audit.enter(10.0, 1, 0, View(0, 1, 2))
        audit.enter(20.0, 2, 0, View(0, 2))
        audit.leave(1, View(0, 1, 2))  # back in view: someone entered its CS
        assert not audit.mutex_ok and audit.cs_owner is None

    def test_fifo_ok_and_granted_filter_by_ranks(self):
        audit = LockAudit()
        for t, rank in enumerate((1, 2, 3)):
            audit.request(float(t), rank, 0)
        for t, rank in enumerate((2, 1, 3)):
            audit.enter(10.0 + t, rank, 0, None)
            audit.leave(rank, None)
        assert audit.granted({1, 3}) == [(1, 0), (3, 0)]
        assert audit.fifo_ok({1, 3})
        assert not audit.fifo_ok({1, 2, 3})
        assert audit.mutex_ok


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
