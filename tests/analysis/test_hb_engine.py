"""Unit tests of the happens-before engine over hand-crafted event streams."""

from __future__ import annotations

from repro.analysis.events import ProtoEvent
from repro.analysis.hb import HBAnalyzer


def E(kind, actor, t=0.0, **data):
    return ProtoEvent(kind=kind, time=t, actor=actor, data=data)


def mem(actor, kind, addr, t=0.0, region="r", n=1, mode="plain"):
    return E(kind, actor, t, region=region, addr=addr, n=n, mode=mode)


def analyze(events, sync_cells=None):
    return HBAnalyzer(sync_cells=sync_cells).analyze(events)


class TestRaces:
    def test_unordered_writes_race(self):
        report = analyze(
            [
                mem("p0", "mem_write", 5, t=1.0),
                mem("p1", "mem_write", 5, t=2.0),
            ]
        )
        assert [v.kind for v in report.violations] == ["data-race"]
        assert report.violations[0].details["addr"] == 5

    def test_write_then_unordered_read_races(self):
        report = analyze(
            [
                mem("p0", "mem_write", 5),
                mem("p1", "mem_read", 5),
            ]
        )
        assert report.counts.get("data-race") == 1

    def test_read_then_unordered_write_races(self):
        report = analyze(
            [
                mem("p1", "mem_read", 5),
                mem("p0", "mem_write", 5),
            ]
        )
        assert report.counts.get("data-race") == 1

    def test_same_actor_is_program_ordered(self):
        report = analyze(
            [
                mem("p0", "mem_write", 5),
                mem("p0", "mem_write", 5),
                mem("p0", "mem_read", 5),
            ]
        )
        assert report.ok()

    def test_concurrent_reads_do_not_race(self):
        report = analyze(
            [
                mem("p0", "mem_read", 5),
                mem("p1", "mem_read", 5),
            ]
        )
        assert report.ok()

    def test_both_atomic_accesses_exempt(self):
        report = analyze(
            [
                mem("p0", "mem_write", 5, mode="atomic"),
                mem("s0", "mem_write", 5, mode="atomic"),
            ]
        )
        assert report.ok()

    def test_atomic_vs_plain_still_races(self):
        report = analyze(
            [
                mem("p0", "mem_write", 5, mode="atomic"),
                mem("p1", "mem_write", 5, mode="plain"),
            ]
        )
        assert report.counts.get("data-race") == 1

    def test_sync_cell_release_acquire_orders(self):
        # p0: write data, release (sync write S).  p1: acquire (sync read
        # S), then touch the data -- ordered, no race.
        report = analyze(
            [
                mem("p0", "mem_write", 5),
                mem("p0", "mem_write", 9, mode="sync"),
                mem("p1", "mem_read", 9, mode="sync"),
                mem("p1", "mem_write", 5),
            ]
        )
        assert report.ok()

    def test_sync_cells_set_applies_to_ranged_access(self):
        # A ranged (plain-mode) write overlapping a registered sync cell
        # must get per-cell sync semantics, not race checks.
        report = analyze(
            [
                mem("p0", "mem_write", 8, n=2),
                mem("p1", "mem_write", 8, n=2),
            ],
            sync_cells={("r", 8), ("r", 9)},
        )
        assert report.ok()

    def test_report_caps_but_counts_everything(self):
        events = []
        for i in range(60):
            events.append(mem("p0", "mem_write", i))
            events.append(mem(f"q{i}", "mem_write", i))
        report = analyze(events)
        assert report.counts["data-race"] == 60
        assert len(report.violations) == 50 and report.suppressed == 10
        assert not report.ok()


class TestOperationLifecycle:
    def test_issue_apply_complete_orders_reader(self):
        # p0 writes locally, issues a get; the server's apply joins p0's
        # issue-time clock; p1's completion joins the apply snapshot, so
        # p1's later write to p0's cell is ordered.
        report = analyze(
            [
                mem("p1", "mem_write", 3),
                E("issue", "p1", op="get", op_id=1, dst_rank=0, node=0),
                E("apply", "s0", op_id=1),
                mem("s0", "mem_read", 3),
                E("apply_done", "s0", op_id=1),
                E("complete", "p1", op_id=1),
            ]
        )
        assert report.ok()

    def test_apply_does_not_inherit_post_issue_events(self):
        # Soundness: the apply joins the *issue-time* snapshot, so a write
        # p0 makes after issuing is NOT ordered before the server's apply.
        report = analyze(
            [
                E("issue", "p0", op="put", op_id=1, dst_rank=1, node=1),
                mem("p0", "mem_write", 7),  # after the issue
                E("apply", "s1", op_id=1),
                mem("s1", "mem_write", 7),  # conflicts; must race
                E("apply_done", "s1", op_id=1),
            ]
        )
        assert report.counts.get("data-race") == 1


class TestFenceCounting:
    def test_over_credit_flagged_at_bump(self):
        report = analyze([E("op_done", "s0", rank=0, value=1)])
        assert report.counts.get("fence") == 1
        assert "without a matching" in report.violations[0].message

    def test_credit_at_apply_is_clean(self):
        report = analyze(
            [
                E("issue", "p1", op="put", op_id=1, dst_rank=0, node=0),
                E("apply", "s0", op_id=1),
                E("op_done", "s0", rank=0, value=1),
                E("apply_done", "s0", op_id=1),
            ]
        )
        assert report.ok()

    def test_get_apply_does_not_earn_credit(self):
        report = analyze(
            [
                E("issue", "p1", op="get", op_id=1, dst_rank=0, node=0),
                E("apply", "s0", op_id=1),
                E("op_done", "s0", rank=0, value=1),
                E("apply_done", "s0", op_id=1),
            ]
        )
        assert report.counts.get("fence") == 1

    def test_dropped_credit_flagged_at_end(self):
        report = analyze(
            [
                E("issue", "p1", op="put", op_id=1, dst_rank=0, node=0),
                E("apply", "s0", op_id=1),
                E("apply_done", "s0", op_id=1),
            ]
        )
        assert report.counts.get("fence") == 1
        assert "dropped op_done credit" in report.violations[0].message

    def test_fence_done_with_unapplied_op(self):
        report = analyze(
            [
                E("issue", "p0", op="put", op_id=1, dst_rank=1, node=1),
                E("fence_done", "p0", node=1),
            ]
        )
        assert report.counts.get("fence") == 1
        assert "un-applied" in report.violations[0].message

    def test_fence_done_after_apply_is_clean_and_orders(self):
        report = analyze(
            [
                E("issue", "p0", op="put", op_id=1, dst_rank=1, node=1),
                E("apply", "s1", op_id=1),
                mem("s1", "mem_write", 4),
                E("op_done", "s1", rank=1, value=1),
                E("apply_done", "s1", op_id=1),
                E("fence_done", "p0", node=1),
                mem("p0", "mem_read", 4),  # ordered through the fence
            ]
        )
        assert report.ok()


class TestBarrier:
    def test_exit_with_unapplied_pending_op(self):
        report = analyze(
            [
                E("issue", "p0", op="put", op_id=1, dst_rank=1, node=1),
                E("barrier_enter", "p0", epoch=1),
                E("barrier_enter", "p1", epoch=1),
                E("barrier_exit", "p1", epoch=1),
                E("apply", "s1", op_id=1),
                E("apply_done", "s1", op_id=1),
                E("barrier_exit", "p0", epoch=1),
            ]
        )
        assert report.counts.get("barrier") == 1
        assert "still un-applied" in report.violations[0].message

    def test_exit_joins_ops_applied_during_barrier(self):
        # The op is outstanding at enter and applied before the exits, so
        # every exit joins its apply snapshot: p1's read is ordered.
        report = analyze(
            [
                E("issue", "p0", op="put", op_id=1, dst_rank=1, node=1),
                E("barrier_enter", "p0", epoch=1),
                E("barrier_enter", "p1", epoch=1),
                E("apply", "s1", op_id=1),
                mem("s1", "mem_write", 2),
                E("op_done", "s1", rank=1, value=1),
                E("apply_done", "s1", op_id=1),
                E("barrier_exit", "p0", epoch=1),
                E("barrier_exit", "p1", epoch=1),
                mem("p1", "mem_read", 2),
            ]
        )
        assert report.ok()

    def test_collective_exit_joins_enters(self):
        report = analyze(
            [
                mem("p0", "mem_write", 6),
                E("coll_enter", "p0", coll="barrier", epoch=0),
                E("coll_enter", "p1", coll="barrier", epoch=0),
                E("coll_exit", "p0", coll="barrier", epoch=0),
                E("coll_exit", "p1", coll="barrier", epoch=0),
                mem("p1", "mem_write", 6),
            ]
        )
        assert report.ok()



class TestCrashDeclaration:
    """A dead rank's writes are ordered before a survivor's post-barrier
    read by the death declaration: ``proc_crashed`` joins the dead rank's
    clock into the membership clock, and a ``barrier_exit`` joins the
    membership clock of the view it reports (``view_epoch``).  The clean
    twin in the fuzz corpus is seed 362, shrunk."""

    @staticmethod
    def survivor_read(declaration, view_epoch):
        return analyze(
            [
                E("view_change", "membership", epoch=1, alive=[0, 1, 3], dead=[2]),
                mem("p3", "mem_write", 12, region="r0"),
                *declaration,
                E("barrier_enter", "p0", epoch=1),
                E("barrier_exit", "p0", epoch=1, view_epoch=view_epoch),
                mem("p0", "mem_read", 12, region="r0"),
            ]
        )

    crashed = (
        E("proc_crashed", "membership", rank=3, node=0, crashed_at=1.0),
        E("view_change", "membership", epoch=2, alive=[0, 1], dead=[2, 3]),
    )

    def test_read_after_declared_view_is_ordered(self):
        assert self.survivor_read(self.crashed, view_epoch=2).ok()

    def test_read_still_races_when_writer_was_only_excluded(self):
        # An excluded rank is alive: its exclusion orders nothing.
        excluded = (
            E("proc_excluded", "membership", rank=3, node=0),
            E("view_change", "membership", epoch=2, alive=[0, 1], dead=[2]),
        )
        report = self.survivor_read(excluded, view_epoch=2)
        # Reported as split-brain: the writer is out of the view right now.
        assert [v.details["actors"] for v in report.violations] == [["p3", "p0"]]

    def test_read_still_races_when_view_predates_declaration(self):
        # The barrier ran over view 1, before the writer's death was
        # declared: the declaration reached the trace but not this exit.
        report = self.survivor_read(self.crashed, view_epoch=1)
        assert report.counts == {"data-race": 1}
        assert report.violations[0].details["actors"] == ["p3", "p0"]

class TestLocks:
    def test_two_holders(self):
        report = analyze(
            [
                E("lock_acq", "p0", lock="L", ticket=None),
                E("lock_acq", "p1", lock="L", ticket=None),
            ]
        )
        assert report.counts.get("lock") == 1
        assert "while held by" in report.violations[0].message

    def test_unlock_without_hold(self):
        report = analyze([E("lock_rel", "p0", lock="L")])
        assert report.counts.get("lock") == 1
        assert "without holding" in report.violations[0].message

    def test_non_fifo_ticket_grant(self):
        report = analyze(
            [
                E("lock_acq", "p0", lock="L", ticket=0),
                E("lock_rel", "p0", lock="L"),
                E("lock_acq", "p1", lock="L", ticket=2),  # skipped ticket 1
            ]
        )
        assert report.counts.get("lock") == 1
        assert "non-FIFO" in report.violations[0].message

    def test_fifo_sequence_is_clean(self):
        events = []
        for i, actor in enumerate(["p0", "p1", "p2"]):
            events.append(E("lock_acq", actor, lock="L", ticket=i))
            events.append(E("lock_rel", actor, lock="L"))
        report = analyze(events)
        assert report.ok()

    def test_release_acquire_edge_orders_critical_sections(self):
        report = analyze(
            [
                E("lock_acq", "p0", lock="L", ticket=None),
                mem("p0", "mem_write", 5),
                E("lock_rel", "p0", lock="L"),
                E("lock_acq", "p1", lock="L", ticket=None),
                mem("p1", "mem_write", 5),
                E("lock_rel", "p1", lock="L"),
            ]
        )
        assert report.ok()

    def test_deadlock_cycle_detected(self):
        report = analyze(
            [
                E("lock_acq", "p0", lock="L1", ticket=None),
                E("lock_acq", "p1", lock="L2", ticket=None),
                E("lock_req", "p0", lock="L2"),
                E("lock_req", "p1", lock="L1"),
            ]
        )
        assert report.counts.get("deadlock") == 1
        assert "wait-for cycle" in report.violations[0].message

    def test_waiting_without_cycle_is_clean(self):
        report = analyze(
            [
                E("lock_acq", "p0", lock="L1", ticket=None),
                E("lock_req", "p1", lock="L1"),
            ]
        )
        # A pending waiter at end of trace is not by itself a deadlock.
        assert report.ok()
