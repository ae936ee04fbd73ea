"""Unit tests for message delivery timing and the NIC model."""

import pytest

from repro.net.fabric import Fabric
from repro.net.faults import FaultPlan
from repro.net.message import mp_endpoint, server_endpoint
from repro.net.params import MSG_HEADER_BYTES, NetworkParams
from repro.net.topology import Topology
from repro.sim.core import Environment, Event
from repro.sim.primitives import Store


def make_fabric(nprocs=4, ppn=1, **param_overrides):
    env = Environment()
    params = NetworkParams(**param_overrides) if param_overrides else NetworkParams()
    topo = Topology(nprocs, procs_per_node=ppn)
    fabric = Fabric(env, topo, params)
    boxes = {}
    for node in range(topo.nnodes):
        boxes[("srv", node)] = Store(env, name=f"s{node}")
        fabric.register(server_endpoint(node), boxes[("srv", node)])
    return env, fabric, boxes


class TestRegistry:
    def test_duplicate_endpoint_rejected(self):
        env, fabric, _ = make_fabric()
        with pytest.raises(ValueError, match="already registered"):
            fabric.register(server_endpoint(0), Store(env))

    def test_unknown_endpoint_lookup(self):
        _env, fabric, _ = make_fabric()
        with pytest.raises(KeyError, match="no mailbox"):
            fabric.mailbox(("srv", 99))

    def test_non_store_mailbox_rejected(self):
        env, fabric, _ = make_fabric()
        with pytest.raises(TypeError):
            fabric.register(("mp", 0), object())

    def test_unknown_endpoint_kind(self):
        _env, fabric, _ = make_fabric()
        with pytest.raises(ValueError, match="endpoint kind"):
            fabric.post(0, ("weird", 0), "x")


class TestDeliveryTiming:
    def test_inter_node_delay(self):
        env, fabric, boxes = make_fabric(
            inter_latency_us=10.0, per_byte_us=0.0, jitter_us=0.0
        )
        fabric.post(0, server_endpoint(1), "hello", payload_bytes=0)
        env.run()
        box = boxes[("srv", 1)]
        assert len(box) == 1
        envelope = box.try_get()
        assert envelope.deliver_at == pytest.approx(10.0)
        assert not envelope.intra_node

    def test_intra_node_delay(self):
        env, fabric, boxes = make_fabric(
            ppn=2, intra_latency_us=0.5, inter_latency_us=10.0
        )
        # rank 1 lives on node 0
        fabric.post(1, server_endpoint(0), "hi")
        env.run()
        envelope = boxes[("srv", 0)].try_get()
        assert envelope.deliver_at == pytest.approx(0.5)
        assert envelope.intra_node

    def test_per_byte_serialization(self):
        env, fabric, boxes = make_fabric(
            inter_latency_us=0.0, per_byte_us=0.1, jitter_us=0.0
        )
        fabric.post(0, server_endpoint(1), "x", payload_bytes=68)
        env.run()
        envelope = boxes[("srv", 1)].try_get()
        assert envelope.size_bytes == 68 + MSG_HEADER_BYTES
        assert envelope.deliver_at == pytest.approx(0.1 * (68 + MSG_HEADER_BYTES))

    def test_nic_backlog_serializes_consecutive_sends(self):
        env, fabric, boxes = make_fabric(
            inter_latency_us=1.0, per_byte_us=0.01, jitter_us=0.0
        )
        # Two 1000-byte messages posted at t=0 from the same node: the second
        # waits for the first's DMA.
        fabric.post(0, server_endpoint(1), "a", payload_bytes=1000 - MSG_HEADER_BYTES)
        fabric.post(0, server_endpoint(1), "b", payload_bytes=1000 - MSG_HEADER_BYTES)
        env.run()
        box = boxes[("srv", 1)]
        first = box.try_get()
        second = box.try_get()
        assert first.deliver_at == pytest.approx(10.0 + 1.0)
        assert second.deliver_at == pytest.approx(20.0 + 1.0)
        assert fabric.nic_busy_until(0) == pytest.approx(20.0)

    def test_different_nodes_do_not_share_nic(self):
        env, fabric, boxes = make_fabric(
            inter_latency_us=1.0, per_byte_us=0.01, jitter_us=0.0
        )
        fabric.post(0, server_endpoint(2), "a", payload_bytes=1000 - MSG_HEADER_BYTES)
        fabric.post(1, server_endpoint(2), "b", payload_bytes=1000 - MSG_HEADER_BYTES)
        env.run()
        box = boxes[("srv", 2)]
        assert box.try_get().deliver_at == pytest.approx(11.0)
        assert box.try_get().deliver_at == pytest.approx(11.0)

    def test_send_charges_sender_overhead(self):
        env, fabric, _boxes = make_fabric(o_send_us=2.5)
        times = []

        def sender():
            yield from fabric.send(0, server_endpoint(1), "msg")
            times.append(env.now)

        env.process(sender())
        env.run()
        assert times == [2.5]

    def test_intra_send_charges_shm_cost(self):
        env, fabric, _boxes = make_fabric(
            ppn=2, o_send_us=2.5, shm_access_us=0.25
        )
        times = []

        def sender():
            yield from fabric.send(1, server_endpoint(0), "msg")
            times.append(env.now)

        env.process(sender())
        env.run()
        assert times == [0.25]


class TestReplies:
    def test_post_reply_delivers_value_with_path_delay(self):
        env, fabric, _ = make_fabric(
            inter_latency_us=5.0, per_byte_us=0.0, o_recv_us=1.0
        )
        reply = Event(env)
        fabric.post_reply(1, 0, reply, value="result")
        env.run()
        assert reply.processed and reply.value == "result"
        assert env.now == pytest.approx(6.0)

    def test_intra_reply_cheaper(self):
        env, fabric, _ = make_fabric(
            ppn=2, intra_latency_us=0.5, shm_access_us=0.1, o_recv_us=1.0
        )
        reply = Event(env)
        fabric.post_reply(0, 1, reply, value=None)  # rank 1 on node 0
        env.run()
        assert env.now == pytest.approx(0.6)


class TestStats:
    def test_counters(self):
        env, fabric, _ = make_fabric(ppn=2)
        fabric.post(0, server_endpoint(1), "inter")
        fabric.post(1, server_endpoint(0), "intra")
        env.run()
        assert fabric.stats.messages == 2
        assert fabric.stats.inter_node == 1
        assert fabric.stats.intra_node == 1
        assert fabric.stats.by_payload == {"str": 2}
        assert fabric.stats.bytes > 0

    def test_refused_post_is_not_counted_as_sent(self):
        # Regression: the mailbox lookup ran after stats.record, the seq
        # bump and the membership refresh, so a post that raised still
        # read as one message sent by a live rank.
        import dataclasses

        class Membership:
            heard = []

            def note_traffic(self, rank):
                self.heard.append(rank)

        env, fabric, _ = make_fabric()
        fabric.attach_membership(Membership())
        before = dataclasses.asdict(fabric.stats)
        with pytest.raises(KeyError, match="no mailbox"):
            fabric.post(0, mp_endpoint(3), "x")
        assert dataclasses.asdict(fabric.stats) == before
        assert fabric._seq == 0
        assert fabric.nic_busy_until(0) == 0.0
        assert Membership.heard == []
        env.run()
        assert env.events_processed == 0

    def test_reply_counter(self):
        env, fabric, _ = make_fabric()
        fabric.post_reply(0, 1, Event(env))
        assert fabric.stats.replies == 1
        env.run()

    def test_reply_counts_message_bytes_and_payload(self):
        # Regression: replies used to bump only `replies`, undercounting
        # messages/bytes/by_payload relative to the traffic on the wire.
        env, fabric, _ = make_fabric()
        fabric.post_reply(0, 1, Event(env), payload_bytes=100)
        assert fabric.stats.messages == 1
        assert fabric.stats.bytes == 100 + MSG_HEADER_BYTES
        assert fabric.stats.inter_node == 1
        assert fabric.stats.by_payload == {"Reply": 1}
        env.run()

    def test_intra_reply_counts_as_intra_node(self):
        env, fabric, _ = make_fabric(ppn=2)
        fabric.post_reply(0, 1, Event(env))  # rank 1 lives on node 0
        assert fabric.stats.intra_node == 1
        assert fabric.stats.inter_node == 0
        env.run()

    def test_reliability_counters_zero_without_faults(self):
        env, fabric, _ = make_fabric()
        fabric.post(0, server_endpoint(1), "x")
        fabric.post_reply(1, 0, Event(env))
        env.run()
        assert fabric.stats.timeouts == 0
        assert fabric.stats.retransmits == 0
        assert fabric.stats.dup_suppressed == 0
        assert fabric.stats.acks == 0


class TestJitter:
    def test_jitter_can_reorder_messages(self):
        env, fabric, boxes = make_fabric(
            inter_latency_us=1.0, per_byte_us=0.0, jitter_us=50.0, seed=7
        )
        for i in range(20):
            fabric.post(0, server_endpoint(1), i, payload_bytes=0)
        env.run()
        box = boxes[("srv", 1)]
        order = [box.try_get().payload for _ in range(20)]
        assert sorted(order) == list(range(20))
        assert order != list(range(20)), "jitter should reorder some pair"

    def test_jitter_deterministic_per_seed(self):
        def run(seed):
            env, fabric, boxes = make_fabric(jitter_us=20.0, seed=seed)
            for i in range(10):
                fabric.post(0, server_endpoint(1), i, payload_bytes=0)
            env.run()
            box = boxes[("srv", 1)]
            return [box.try_get().payload for _ in range(10)]

        assert run(3) == run(3)

    def test_no_jitter_preserves_order(self):
        env, fabric, boxes = make_fabric(jitter_us=0.0)
        for i in range(20):
            fabric.post(0, server_endpoint(1), i, payload_bytes=0)
        env.run()
        box = boxes[("srv", 1)]
        assert [box.try_get().payload for _ in range(20)] == list(range(20))


class TestRngStreamSplit:
    """The jitter and fault RNG streams must be independent (same seed)."""

    def _jittered_arrivals(self, faults):
        env, fabric, boxes = make_fabric(
            inter_latency_us=1.0,
            per_byte_us=0.0,
            jitter_us=50.0,
            seed=7,
            faults=faults,
        )
        for i in range(20):
            fabric.post(0, server_endpoint(1), i, payload_bytes=0)
        env.run()
        box = boxes[("srv", 1)]
        count = len(box)
        out = [box.try_get() for _ in range(count)]
        return [(e.payload, e.deliver_at) for e in out]

    def test_inactive_fault_plan_leaves_jitter_sequence_unchanged(self):
        # A present-but-all-zero plan routes through the injector yet must
        # not perturb the jitter draws: identical payload/time schedule.
        baseline = self._jittered_arrivals(None)
        with_plan = self._jittered_arrivals(FaultPlan.uniform(reliable=False))
        assert with_plan == baseline

    def test_drops_do_not_shift_surviving_jitter_draws(self):
        # Fault decisions come from their own stream, so the messages that
        # survive a lossy plan keep the exact delivery times they had in the
        # fault-free run.
        baseline = dict(self._jittered_arrivals(None))
        lossy = self._jittered_arrivals(
            FaultPlan.uniform(drop_rate=0.3, seed=3, reliable=False)
        )
        assert 0 < len(lossy) < 20
        for payload, deliver_at in lossy:
            assert deliver_at == pytest.approx(baseline[payload])
