"""Unit tests for the reliable-delivery layer (repro.net.reliable)."""

import pytest

from repro.net.fabric import Fabric
from repro.net.faults import FaultPlan, LinkFaults, Partition
from repro.net.message import server_endpoint
from repro.net.params import NetworkParams
from repro.net.reliable import ReliabilityError
from repro.net.topology import Topology
from repro.sim.core import Environment, Event
from repro.sim.primitives import Store


def in_flight(reliable):
    """Unacknowledged frames across the transport's send channels."""
    return sum(len(ch.unacked) for ch in reliable._send_channels.values())


def resequencer_depth(reliable):
    """Frames buffered out of order at the transport's receivers."""
    return sum(len(ch.buffer) for ch in reliable._recv_channels.values())


def make_fabric(plan, nprocs=4, **overrides):
    overrides.setdefault("per_byte_us", 0.0)
    overrides.setdefault("inter_latency_us", 1.0)
    overrides.setdefault("retry_timeout_us", 20.0)
    env = Environment()
    params = NetworkParams(faults=plan, **overrides)
    topo = Topology(nprocs, procs_per_node=1)
    fabric = Fabric(env, topo, params)
    boxes = {}
    for node in range(topo.nnodes):
        boxes[("srv", node)] = Store(env, name=f"s{node}")
        fabric.register(server_endpoint(node), boxes[("srv", node)])
    return env, fabric, boxes


def payloads(box):
    count = len(box)
    return [box.items.popleft().payload for _ in range(count)]


class TestInOrderExactlyOnce:
    def test_lossy_reordering_link_restored_to_fifo(self):
        plan = FaultPlan.uniform(
            drop_rate=0.3,
            dup_rate=0.2,
            reorder_rate=0.4,
            reorder_window_us=30.0,
            seed=11,
        )
        env, fabric, boxes = make_fabric(plan)
        for i in range(30):
            fabric.post(0, server_endpoint(1), i)
        env.run()
        assert payloads(boxes[("srv", 1)]) == list(range(30))
        assert fabric.stats.retransmits > 0
        assert fabric.faults.stats.dropped > 0
        assert in_flight(fabric.reliable) == 0
        assert resequencer_depth(fabric.reliable) == 0

    def test_channels_are_independent(self):
        plan = FaultPlan.uniform(drop_rate=0.3, seed=4)
        env, fabric, boxes = make_fabric(plan)
        for i in range(10):
            fabric.post(0, server_endpoint(1), ("a", i))
            fabric.post(2, server_endpoint(1), ("b", i))
        env.run()
        arrived = payloads(boxes[("srv", 1)])
        assert [p for p in arrived if p[0] == "a"] == [("a", i) for i in range(10)]
        assert [p for p in arrived if p[0] == "b"] == [("b", i) for i in range(10)]

    def test_lost_acks_cause_suppressed_duplicates(self):
        # Forward link clean, reverse (ACK) link lossy: every lost ACK
        # forces a retransmission the receiver must suppress.
        plan = FaultPlan(
            links=(((1, 0), LinkFaults(drop_rate=0.5)),),
            seed=3,
        )
        env, fabric, boxes = make_fabric(plan)
        for i in range(20):
            fabric.post(0, server_endpoint(1), i)
        env.run()
        assert payloads(boxes[("srv", 1)]) == list(range(20))
        assert fabric.stats.retransmits > 0
        assert fabric.stats.dup_suppressed > 0
        assert in_flight(fabric.reliable) == 0

    def test_cut_window_recovered_by_retransmission(self):
        # Everything sent to node 1 during [0, 50) is lost at the cut; the
        # retransmit timer re-sends until a copy goes out after the heal.
        plan = FaultPlan(partitions=(Partition(nodes=(1,), from_us=0.0, until_us=50.0),))
        env, fabric, boxes = make_fabric(plan)
        for i in range(5):
            fabric.post(0, server_endpoint(1), i)
        env.run()
        assert payloads(boxes[("srv", 1)]) == list(range(5))
        assert fabric.faults.stats.partition_dropped >= 5
        assert fabric.stats.retransmits >= 5


class TestStateSurvivesDroppedFrames:
    def test_dropped_frames_are_retransmitted_and_memory_converges(self):
        """Every link into one node loses half its frames: the transport
        retransmits what was destroyed, so the barrier completes with no
        help from the protocol and every put lands."""
        from repro.net.params import myrinet2000
        from repro.runtime.cluster import ClusterRuntime
        from repro.runtime.memory import GlobalAddress

        nprocs, lossy = 8, 2
        plan = FaultPlan(
            links=tuple(
                ((src, lossy), LinkFaults(drop_rate=0.5)) for src in range(nprocs) if src != lossy
            ),
            seed=5,
        )
        runtime = ClusterRuntime(nprocs, params=myrinet2000().with_(faults=plan))

        def workload(ctx):
            base = ctx.region.alloc_named("slots", ctx.nprocs, initial=0)
            for peer in range(ctx.nprocs):
                if peer != ctx.rank:
                    yield from ctx.armci.put(GlobalAddress(peer, base + ctx.rank), [1])
            yield from ctx.armci.barrier()

        runtime.run_spmd(workload)
        assert runtime.membership is None
        for rank in range(nprocs):
            region = runtime.regions[rank]
            got = region.read_many(region.alloc_named("slots", nprocs), nprocs)
            got[rank] = 1  # own slot never written
            assert got == [1] * nprocs
        assert runtime.fabric.faults.stats.dropped > 0
        assert runtime.fabric.stats.retransmits > 0


class TestRetryCap:
    def test_retry_exhaustion_declares_peer_dead(self):
        """Exhausting the retry budget no longer raises: the peer is
        declared dead, the channel backlog is dropped, and the simulation
        keeps running (the membership detector owns what happens next)."""
        plan = FaultPlan.uniform(drop_rate=1.0, seed=1)
        env, fabric, boxes = make_fabric(plan, max_retries=2, retry_timeout_us=10.0)
        fabric.post(0, server_endpoint(1), "doomed")
        env.run()  # must complete without ReliabilityError
        assert fabric.stats.timeouts == 3  # 2 retries + the fatal expiry
        assert fabric.stats.links_declared_dead == 1
        assert in_flight(fabric.reliable) == 0  # backlog abandoned
        assert fabric.endpoint_dead(server_endpoint(1))
        assert len(boxes[("srv", 1)]) == 0
        # Follow-up traffic to the dead endpoint is refused at post time.
        fabric.post(0, server_endpoint(1), "late")
        env.run()
        assert fabric.stats.dropped_dead >= 1
        assert len(boxes[("srv", 1)]) == 0
        # The declaration is per-endpoint, not global.
        assert not fabric.endpoint_dead(server_endpoint(2))

    def test_reliability_error_still_importable(self):
        # Kept for API compatibility with pre-crash-model callers.
        assert issubclass(ReliabilityError, Exception)


class TestReliableReplies:
    def test_reply_delivered_exactly_once_over_lossy_link(self):
        plan = FaultPlan.uniform(drop_rate=0.4, dup_rate=0.3, seed=9)
        env, fabric, _boxes = make_fabric(plan)
        events = [Event(env) for _ in range(10)]
        for i, event in enumerate(events):
            fabric.post_reply(1, 0, event, value=i)
        env.run()
        for i, event in enumerate(events):
            assert event.processed and event.value == i
        assert in_flight(fabric.reliable) == 0

    def test_intra_node_reply_bypasses_transport(self):
        plan = FaultPlan.uniform(drop_rate=1.0, seed=2)
        env = Environment()
        params = NetworkParams(
            faults=plan, intra_latency_us=0.5, shm_access_us=0.1, o_recv_us=1.0
        )
        fabric = Fabric(env, Topology(4, procs_per_node=2), params)
        reply = Event(env)
        fabric.post_reply(0, 1, reply, value="local")  # rank 1 on node 0
        env.run()
        assert reply.processed and reply.value == "local"
        assert env.now == pytest.approx(0.6)


class TestRetrySuspension:
    """A partition outlasting the retry budget suspends the frame (no
    fail-stop declaration) and the frame goes through once the cut heals."""

    @staticmethod
    def _partitioned_post():
        env = Environment()
        plan = FaultPlan(partitions=(Partition((1,), 0.0, 2e6),), seed=0)
        fabric = Fabric(env, Topology(2), NetworkParams(faults=plan))
        box = Store(env)
        fabric.register(server_endpoint(0), Store(env))
        fabric.register(server_endpoint(1), box)
        arrivals = []

        def reader():
            envelope = yield box.get()
            arrivals.append((env.now, envelope.payload))

        env.process(reader())
        fabric.post(0, server_endpoint(1), "through")
        return env, fabric, box, arrivals

    def test_exhaustion_inside_a_partition_suspends_then_delivers_once(self):
        env, fabric, box, arrivals = self._partitioned_post()
        env.run()
        stats = fabric.stats
        assert (stats.retry_suspended, stats.links_declared_dead) == (1, 0)
        assert stats.retransmits == 13
        assert arrivals == [(pytest.approx(2_000_011.884), "through")]
        assert len(box) == 0
        assert in_flight(fabric.reliable) == 0

    def test_abandoned_sender_stops_retransmitting(self):
        env, fabric, box, arrivals = self._partitioned_post()
        env.run(until=100.0)
        attempts = fabric.stats.retransmits
        assert in_flight(fabric.reliable) == 1
        fabric.reliable.abandon_sender(0)
        env.run()
        assert fabric.stats.retransmits == attempts
        assert (fabric.stats.retry_suspended, in_flight(fabric.reliable)) == (0, 0)
        assert arrivals == []
