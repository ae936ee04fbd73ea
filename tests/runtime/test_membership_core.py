"""``MembershipCore`` driven directly: no ``Environment``, no ``ClusterRuntime``.

The core takes the time as an argument and reports through callables, so
a view change is a few method calls.  A plain walk through crash →
declare → heal → rejoin guards that the core stays pure; a
``hypothesis.stateful`` machine then drives crash, partition, heal,
stall, resume, suspect and heard on a fixed eight-rank, four-node
topology and checks the invariants ``docs/fault_model.md`` states in
prose after every step.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from types import SimpleNamespace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.mp.vector import CountVector
from repro.net.faults import FaultPlan, Partition, ProcessCrash, ProcessStall
from repro.net.topology import Topology
from repro.runtime.membership import CHECK_US, SUSPECT_TIMEOUT_US, MembershipCore


def _core(topology, plan, events, **overrides):
    """A core whose effects land in ``events`` as ``(kind, fields)``."""
    callables = dict(
        emit=lambda kind, **fields: events.append((kind, fields)),
        kill=lambda rank: events.append(("kill", {"rank": rank})),
        issued=lambda rank: CountVector([rank + 1] * topology.nprocs),
        recover=lambda key, rank, transient: events.append(
            ("recover", {"rank": rank, "transient": transient})
        ),
        publish=lambda: events.append(("publish", {})),
    )
    callables.update(overrides)
    return MembershipCore(topology, plan, **callables)


class TestCoreIsPure:
    def test_class_body_never_yields_and_holds_no_environment(self):
        tree = ast.parse(textwrap.dedent(inspect.getsource(MembershipCore)))
        for node in ast.walk(tree):
            assert not isinstance(node, (ast.Yield, ast.YieldFrom)), ast.unparse(node)
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("env", "runtime", "fabric"), ast.unparse(node)

    def test_crash_declare_heal_rejoin(self):
        # Four single-rank nodes; node 3 is cut off during [100, 400) and
        # rank 2 crashes at 50.
        plan = FaultPlan(
            crashes=(ProcessCrash(at_us=50.0, rank=2),),
            partitions=(Partition((3,), 100.0, 400.0),),
        )
        events = []
        core = _core(Topology(4), plan, events)

        core.crash(2, 50.0)
        assert events == [("kill", {"rank": 2})]
        events.clear()
        for rank in (0, 1, 3):
            core.heard(rank, 60.0)
        core.heard(3, 150.0)  # minority side: the refresh is suppressed
        for rank in (0, 1):
            core.heard(rank, 170.0)
        core.detect(185.0)
        kinds = [kind for kind, _f in events]
        assert kinds == [
            "proc_crashed", "view_change", "publish",
            "proc_excluded", "view_change", "publish",
        ]
        crashed, excluded = events[0][1], events[3][1]
        assert crashed["rank"] == 2 and crashed["detect_latency_us"] == 135.0
        assert excluded["rank"] == 3 and excluded["epoch"] == 2
        assert core.dead_ranks() == (2,)
        assert core.alive_ranks() == (0, 1)
        assert core.is_alive(3) and not core.in_view(3)
        # Both departed ranks' issued credits are owed to every survivor.
        assert core.written_off(0) == 3 + 4
        assert list(core.dead_contribution(core.epoch)) == [7, 7, 7, 7]

        events.clear()
        part = plan.partitions[0]
        assert core.end_window(range(4), 400.0, part) == [(3, 185.0, 2)]
        # In the view, but not yet published: the service's freeze gate
        # holds the rank until its resync is posted.
        assert core.in_view(3)
        assert [kind for kind, _f in events] == ["partition_heal", "view_change"]
        core.resynced([3])
        assert [kind for kind, _f in events][2:] == ["publish"]
        assert events[0][1]["rejoining"] == [3]
        assert events[1][1] == {
            "epoch": 3, "alive": [0, 1, 3], "dead": [2], "excluded": [],
        }
        assert core.rejoined_at == {3: 400.0}
        assert core.written_off(0) == 3  # its exclusion snapshot is retired
        assert core.loops_done(400.0 + SUSPECT_TIMEOUT_US + CHECK_US)

    def test_declaring_an_uncrashed_rank_fail_stops_it(self):
        events = []
        core = _core(Topology(3), FaultPlan(), events)
        core.suspected(("mp", 1), 10.0, "retries exhausted")
        assert events[0] == ("kill", {"rank": 1})
        assert core.crashed_at == {1: 10.0} and core.declared_at == {1: 10.0}

    def test_nic_sources_name_no_rank(self):
        core = _core(Topology(2), FaultPlan(), [])
        core.heard(("nic", 0), 99.0)
        core.heard(1, 99.0)
        assert not core.declared_at
        core.detect(99.0 + SUSPECT_TIMEOUT_US + 1.0)
        assert core.dead_ranks() == (0, 1)
        core.heard(0, 500.0)  # a dead rank's late traffic refreshes nothing
        assert core.dead_ranks() == (0, 1)


NPROCS, PPN = 8, 2
TOPOLOGY = Topology(NPROCS, procs_per_node=PPN)
NODES = tuple(range(NPROCS // PPN))

_window = st.tuples(
    st.floats(0.0, 1500.0, allow_nan=False), st.floats(40.0, 700.0, allow_nan=False)
)
_partitions = st.lists(
    st.tuples(
        st.sets(st.sampled_from(NODES), min_size=1, max_size=len(NODES) - 1),
        _window,
    ),
    max_size=2,
)
_stalls = st.lists(st.tuples(st.sampled_from(range(NPROCS)), _window), max_size=2)
_ranks = st.sampled_from(range(NPROCS))


class _Handle:
    """One rank's handle on a lock whose words live at its home, rank 0."""

    kind, name, home_rank = "mcs", "m", 0
    lock_words_at_home = True

    def __init__(self, rank):
        self.ctx = SimpleNamespace(rank=rank)


class MembershipMachine(RuleBasedStateMachine):
    """Windows are drawn up front, as a ``FaultPlan`` schedules them; the
    rules then move time through them in order, running each window end
    exactly as the service's executor does."""

    @initialize(partitions=_partitions, stalls=_stalls)
    def build(self, partitions, stalls):
        plan = FaultPlan(
            partitions=tuple(
                Partition(tuple(nodes), start, start + length)
                for nodes, (start, length) in partitions
            ),
            pauses=tuple(
                ProcessStall(rank, start, start + length)
                for rank, (start, length) in stalls
            ),
        )
        self.plan = plan
        self.now = 0.0
        self.views = 0
        self.crashed = set()  # ranks the crash rule killed (ground truth)
        self.killed_nodes = set()
        self.snapshots = {}
        self.core = MembershipCore(
            TOPOLOGY,
            plan,
            emit=self._on_emit,
            kill=lambda rank: None,
            issued=self._issued,
            recover=self._on_recover,
            publish=lambda: None,
        )
        for rank in range(NPROCS):
            self.core.register_lock(_Handle(rank))
        self.starts = sorted(
            [(p.from_us, "partition") for p in plan.partitions]
            + [(s.from_us, "stall") for s in plan.pauses]
        )
        self.ends = sorted(
            [(p.until_us, 0, "heal", i) for i, p in enumerate(plan.partitions)]
            + [(s.until_us, 1, "resume", i) for i, s in enumerate(plan.pauses)]
        )

    # -- effects, checked as the core makes them --------------------------------

    def _issued(self, rank):
        vector = CountVector([(rank + r) % 3 for r in range(NPROCS)])
        self.snapshots[rank] = vector
        return vector

    def _majority(self, when):
        live = tuple(n for n in NODES if n not in self.killed_nodes)
        return next(
            (c for c in self.plan.components(live, when) if 2 * len(c) > len(live)),
            (),
        )

    def _cut(self, when):
        return any(p.covers(when) for p in self.plan.partitions)

    def _explained(self, rank, when):
        """Does an active window explain ``rank``'s silence?"""
        if self.plan.stalled(rank, when):
            return True
        return self._cut(when) and TOPOLOGY.node_of(rank) not in self._majority(when)

    def _on_emit(self, kind, **fields):
        core = self.core
        if kind == "view_change":
            # One epoch per installed view; the view is the sorted list of
            # live, non-excluded ranks.
            self.views += 1
            assert fields["epoch"] == self.views == core.epoch
            expected = [r for r in range(NPROCS) if core.is_alive(r) and core.in_view(r)]
            assert fields["alive"] == expected
            assert core.view(core.epoch) == tuple(expected)
        elif kind == "proc_excluded":
            # During a cut nothing is excluded without a strict majority.
            assert not self._cut(self.now) or self._majority(self.now)
            assert self._explained(fields["rank"], self.now)
        elif kind == "proc_crashed":
            # A window that explains a rank's silence never gets it
            # declared; only a real crash found at its window's end does.
            if self._explained(fields["rank"], self.now):
                assert fields["reason"] == "crashed while excluded"
                assert fields["rank"] in self.crashed

    def _on_recover(self, key, rank, transient):
        assert not self.core.in_view(rank)

    # -- time -------------------------------------------------------------------

    def _advance(self, until):
        """Move to ``until``, running every window end due on the way."""
        while self.ends and self.ends[0][0] <= until:
            when, _order, kind, index = self.ends.pop(0)
            self.now = when
            if kind == "heal":
                scope, part = range(NPROCS), self.plan.partitions[index]
            else:
                scope, part = (self.plan.pauses[index].rank,), None
            healing = [r for r, _at, _epoch in self.core.end_window(scope, when, part)]
            if healing:
                self.core.resynced(healing)
            for rank in healing:
                self.snapshots.pop(rank, None)
            # Once its window has healed, every excluded rank in its scope
            # is dead or readmitted — unless another window still holds it.
            for rank in scope:
                assert self.core.in_view(rank) or not self.core.is_alive(rank) or (
                    self._explained(rank, when)
                )
        self.now = max(self.now, until)

    def _next_start(self, kind):
        return next((t for t, k in self.starts if k == kind and t > self.now), None)

    def _next_end(self, kind):
        return next((e for e in self.ends if e[2] == kind), None)

    # -- rules ------------------------------------------------------------------

    @rule(dt=st.sampled_from([CHECK_US, 45.0, SUSPECT_TIMEOUT_US + CHECK_US]))
    def tick(self, dt):
        self._advance(self.now + dt)
        self.core.detect(self.now)

    @precondition(lambda self: self._next_start("partition") is not None)
    @rule()
    def partition(self):
        self._advance(self._next_start("partition"))
        self.core.detect(self.now)

    @precondition(lambda self: self._next_end("heal") is not None)
    @rule()
    def heal(self):
        self._advance(self._next_end("heal")[0])

    @precondition(lambda self: self._next_start("stall") is not None)
    @rule()
    def stall(self):
        self._advance(self._next_start("stall"))
        self.core.detect(self.now)

    @precondition(lambda self: self._next_end("resume") is not None)
    @rule()
    def resume(self):
        self._advance(self._next_end("resume")[0])

    @rule(rank=_ranks)
    def crash(self, rank):
        self.crashed.add(rank)
        self.core.crash(rank, self.now)

    @rule(rank=_ranks)
    def heard(self, rank):
        if rank not in self.crashed:  # a dead rank sends nothing
            self.core.heard(rank, self.now)

    @rule(rank=_ranks, node=st.sampled_from(NODES), server=st.booleans())
    def suspect(self, rank, node, server):
        endpoint = ("srv", node) if server else ("mp", rank)
        if server and not self._cut(self.now):
            self.killed_nodes.add(node)
        self.core.suspected(endpoint, self.now, "suspected")
        if not server and not self.core.is_alive(rank):
            self.crashed.add(rank)  # declared on suspicion: fail-stopped

    @rule(src=_ranks, dst=_ranks)
    def apply(self, src, dst):
        self.core.note_apply(src, dst)

    @rule(rank=_ranks)
    def acquire(self, rank):
        if self.core.in_view(rank):
            self.core.lease_acquire(_Handle(rank), None)

    # -- invariants -------------------------------------------------------------

    @invariant()
    def epochs_count_views(self):
        assert self.core.epoch == self.views

    @invariant()
    def write_offs_are_never_negative(self):
        for me in range(NPROCS):
            assert self.core.written_off(me) >= 0

    @invariant()
    def dead_contribution_counts_only_ranks_outside_the_view(self):
        view = set(self.core.alive_ranks())
        expected = [0] * NPROCS
        for rank, vector in self.snapshots.items():
            if rank not in view:
                expected = [a + b for a, b in zip(expected, vector)]
        assert list(self.core.dead_contribution(self.core.epoch)) == expected

    def teardown(self):
        # After the last window, no rank is left excluded.
        if not hasattr(self, "core"):
            return
        self._advance(max(self.now, self.plan.transient_end_us))
        assert all(
            self.core.in_view(r) or not self.core.is_alive(r) for r in range(NPROCS)
        )


MembershipMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestMembershipMachine = MembershipMachine.TestCase
