"""Unit tests for the transient fault model: partitions and process stalls.

These cover the :mod:`repro.net.faults` layer only — deterministic cuts,
held deliveries, plan normalization, and connectivity components.  The
membership-level consequences (exclusion, freezing, rejoin) live in
tests/runtime/test_partitions.py.
"""

import pytest

from repro.net.fabric import Fabric
from repro.net.faults import (
    FaultPlan,
    Partition,
    ProcessStall,
)
from repro.net.message import mp_endpoint, server_endpoint
from repro.net.params import NetworkParams
from repro.net.topology import Topology
from repro.sim.core import Environment
from repro.sim.primitives import Store


def make_fabric(plan, nprocs=4, ppn=1, **overrides):
    overrides.setdefault("per_byte_us", 0.0)
    overrides.setdefault("inter_latency_us", 1.0)
    overrides.setdefault("retry_timeout_us", 20.0)
    env = Environment()
    params = NetworkParams(faults=plan, **overrides)
    topo = Topology(nprocs, procs_per_node=ppn)
    fabric = Fabric(env, topo, params)
    boxes = {}
    for node in range(topo.nnodes):
        boxes[("srv", node)] = Store(env, name=f"s{node}")
        fabric.register(server_endpoint(node), boxes[("srv", node)])
    for rank in range(nprocs):
        boxes[("mp", rank)] = Store(env, name=f"m{rank}")
        fabric.register(mp_endpoint(rank), boxes[("mp", rank)])
    return env, fabric, boxes


class TestValidation:
    def test_partition_needs_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            Partition(nodes=(), from_us=0.0, until_us=10.0)

    def test_partition_window_ordering(self):
        with pytest.raises(ValueError, match="from_us < until_us"):
            Partition(nodes=(1,), from_us=50.0, until_us=50.0)
        with pytest.raises(ValueError, match="from_us < until_us"):
            Partition(nodes=(1,), from_us=-1.0, until_us=10.0)

    def test_partition_nodes_normalized(self):
        part = Partition(nodes=(3, 1, 3), from_us=0.0, until_us=10.0)
        assert part.nodes == (1, 3)

    def test_partition_rejects_negative_nodes(self):
        with pytest.raises(ValueError, match="non-negative"):
            Partition(nodes=(-1,), from_us=0.0, until_us=10.0)

    def test_stall_window_ordering(self):
        with pytest.raises(ValueError, match="from_us < until_us"):
            ProcessStall(rank=1, from_us=20.0, until_us=5.0)
        with pytest.raises(ValueError, match="non-negative"):
            ProcessStall(rank=-2, from_us=0.0, until_us=5.0)

    def test_partitions_require_reliable_transport(self):
        with pytest.raises(ValueError, match="require reliable"):
            FaultPlan(
                partitions=(Partition(nodes=(1,), from_us=0.0, until_us=5.0),),
                reliable=False,
            )

    def test_plan_type_checks_transient_entries(self):
        with pytest.raises(TypeError, match="Partition"):
            FaultPlan(partitions=(((1,), 0.0, 5.0),))
        with pytest.raises(TypeError, match="ProcessStall"):
            FaultPlan(pauses=((1, 0.0, 5.0),))


class TestPlanQueries:
    def test_transient_flag(self):
        assert not FaultPlan().transient
        assert FaultPlan(
            partitions=(Partition(nodes=(1,), from_us=0.0, until_us=5.0),)
        ).transient
        assert FaultPlan(
            pauses=(ProcessStall(rank=2, from_us=0.0, until_us=5.0),)
        ).transient

    def test_transient_end_is_last_window_close(self):
        plan = FaultPlan(
            partitions=(Partition(nodes=(1,), from_us=0.0, until_us=50.0),),
            pauses=(ProcessStall(rank=2, from_us=10.0, until_us=90.0),),
        )
        assert plan.transient_end_us == 90.0
        assert FaultPlan().transient_end_us == 0.0

    def test_windows_sorted_chronologically(self):
        plan = FaultPlan(
            partitions=(
                Partition(nodes=(2,), from_us=60.0, until_us=90.0),
                Partition(nodes=(1,), from_us=10.0, until_us=40.0),
            ),
            pauses=(
                ProcessStall(rank=3, from_us=50.0, until_us=80.0),
                ProcessStall(rank=1, from_us=5.0, until_us=30.0),
            ),
        )
        assert [p.from_us for p in plan.partitions] == [10.0, 60.0]
        assert [s.rank for s in plan.pauses] == [1, 3]

    def test_partitioned_is_directionless_and_timed(self):
        plan = FaultPlan(
            partitions=(Partition(nodes=(1,), from_us=10.0, until_us=20.0),)
        )
        assert plan.partitioned(0, 1, 15.0)
        assert plan.partitioned(1, 0, 15.0)
        assert not plan.partitioned(0, 1, 5.0)
        assert not plan.partitioned(0, 1, 20.0)  # half-open window
        assert not plan.partitioned(0, 2, 15.0)  # same (majority) side

    def test_components_group_by_cut_signature(self):
        plan = FaultPlan(
            partitions=(
                Partition(nodes=(2, 3), from_us=0.0, until_us=100.0),
                Partition(nodes=(3,), from_us=50.0, until_us=100.0),
            )
        )
        # One cut active: {0, 1} | {2, 3}.
        assert plan.components((0, 1, 2, 3), 10.0) == [(0, 1), (2, 3)]
        # Both cuts active: node 3 separates from node 2 as well.
        assert plan.components((0, 1, 2, 3), 60.0) == [(0, 1), (2,), (3,)]
        # No cut active: one component.
        assert plan.components((0, 1, 2, 3), 100.0) == [(0, 1, 2, 3)]


class TestPartitionInjection:
    def plan(self):
        return FaultPlan(
            partitions=(Partition(nodes=(1,), from_us=0.0, until_us=50.0),)
        )

    def test_cut_drops_cross_traffic_both_directions(self):
        env, fabric, boxes = make_fabric(self.plan(), max_retries=2)
        fabric.post(0, server_endpoint(1), "a->b")
        fabric.post(2, server_endpoint(0), "b->a")  # rank 2 lives on node 2
        env.run(until=40.0)
        assert len(boxes[("srv", 1)]) == 0
        assert fabric.faults.stats.partition_dropped > 0

    def test_within_side_traffic_unaffected(self):
        env, fabric, boxes = make_fabric(self.plan(), nprocs=6, max_retries=2)
        fabric.post(0, server_endpoint(2), "majority-internal")
        env.run(until=40.0)
        assert len(boxes[("srv", 2)]) == 1

    def test_heal_lets_retransmits_through(self):
        env, fabric, boxes = make_fabric(
            self.plan(), retry_timeout_us=20.0, max_retries=10
        )
        fabric.post(0, server_endpoint(1), "queued")
        env.run()
        assert [e.payload for e in boxes[("srv", 1)].items] == ["queued"]
        assert fabric.stats.retransmits > 0

    def test_cut_is_deterministic_and_rng_free(self):
        # A partition never draws from the fault RNG, so adding one leaves
        # the probabilistic drop stream untouched.
        def drops(partitions):
            plan = FaultPlan.uniform(drop_rate=0.3, seed=5, partitions=partitions)
            env, fabric, _ = make_fabric(plan, nprocs=6, max_retries=3)
            for i in range(20):
                fabric.post(0, server_endpoint(2), i)
            env.run(until=30.0)
            return fabric.faults.stats.dropped

        cut = (Partition(nodes=(1,), from_us=0.0, until_us=50.0),)
        assert drops(()) == drops(cut)


class TestPauseInjection:
    def test_pause_holds_mailbox_delivery_until_resume(self):
        plan = FaultPlan(
            pauses=(ProcessStall(rank=1, from_us=0.0, until_us=80.0),)
        )
        env, fabric, boxes = make_fabric(plan)
        arrivals = []

        def watch():
            item = yield boxes[("mp", 1)].get()
            arrivals.append((env.now, item.payload))

        env.process(watch())
        fabric.post(0, mp_endpoint(1), "held")
        env.run()
        assert arrivals and arrivals[0][1] == "held"
        assert arrivals[0][0] >= 80.0
        assert fabric.faults.stats.pause_held > 0

    def test_pause_covers_intra_node_queue_too(self):
        # A descheduled process receives nothing, local senders included.
        plan = FaultPlan(
            pauses=(ProcessStall(rank=1, from_us=0.0, until_us=60.0),)
        )
        env, fabric, boxes = make_fabric(plan, nprocs=4, ppn=2)
        fabric.post(0, mp_endpoint(1), "local")  # ranks 0, 1 share node 0
        env.run(until=30.0)
        assert len(boxes[("mp", 1)]) == 0
        env.run()
        assert [e.payload for e in boxes[("mp", 1)].items] == ["local"]

    def test_other_ranks_unaffected(self):
        plan = FaultPlan(
            pauses=(ProcessStall(rank=1, from_us=0.0, until_us=80.0),)
        )
        env, fabric, boxes = make_fabric(plan)
        fabric.post(0, mp_endpoint(2), "prompt")
        env.run(until=30.0)
        assert len(boxes[("mp", 2)]) == 1
