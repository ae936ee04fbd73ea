"""Property-based timing invariants of the message fabric."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fabric import Fabric
from repro.net.faults import FaultPlan
from repro.net.message import server_endpoint
from repro.net.params import MSG_HEADER_BYTES, NetworkParams
from repro.net.topology import Topology
from repro.sim.core import Environment
from repro.sim.primitives import Store


def rig(nprocs=2, **overrides):
    env = Environment()
    params = NetworkParams(**overrides)
    topo = Topology(nprocs)
    fabric = Fabric(env, topo, params)
    boxes = {}
    for node in range(topo.nnodes):
        boxes[node] = Store(env)
        fabric.register(server_endpoint(node), boxes[node])
    return env, fabric, boxes


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=65536),
                   min_size=1, max_size=30),
    latency=st.floats(min_value=0.0, max_value=100.0),
    per_byte=st.floats(min_value=0.0, max_value=0.1),
)
@settings(max_examples=80, deadline=None)
def test_delivery_never_beats_physics(sizes, latency, per_byte):
    """Every delivery happens no earlier than wire latency + its own
    serialization, and NIC backlog only ever delays, never reorders."""
    env, fabric, boxes = rig(inter_latency_us=latency, per_byte_us=per_byte)
    for i, size in enumerate(sizes):
        fabric.post(0, server_endpoint(1), i, payload_bytes=size)
    env.run()
    deliveries = list(boxes[1].items)
    assert len(deliveries) == len(sizes)
    for envelope in deliveries:
        floor = latency + envelope.size_bytes * per_byte
        assert envelope.deliver_at >= floor - 1e-9
    # In-order: same-pair messages arrive in post order.
    assert [e.payload for e in deliveries] == list(range(len(sizes)))
    arrival_times = [e.deliver_at for e in deliveries]
    assert arrival_times == sorted(arrival_times)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=4096),
                   min_size=2, max_size=20)
)
@settings(max_examples=60, deadline=None)
def test_nic_serialization_conserves_work(sizes):
    """The NIC finishes its backlog exactly at the sum of transfer times
    when all messages are posted at t=0."""
    per_byte = 0.01
    env, fabric, _boxes = rig(per_byte_us=per_byte)
    for i, size in enumerate(sizes):
        fabric.post(0, server_endpoint(1), i, payload_bytes=size)
    total_bytes = sum(size + MSG_HEADER_BYTES for size in sizes)
    assert fabric._nic_free[0] == _approx(total_bytes * per_byte)
    env.run()


def _approx(x, eps=1e-6):
    class _A:
        def __eq__(self, other):
            return abs(other - x) < eps

    return _A()


@given(
    jitter=st.floats(min_value=0.1, max_value=200.0),
    seed=st.integers(0, 9999),
)
@settings(max_examples=60, deadline=None)
def test_jitter_only_adds_delay(jitter, seed):
    """The reorder injector's jitter may reorder but never delivers earlier
    than the jitter-free lower bound."""
    plan = FaultPlan.uniform(
        reorder_rate=1.0, reorder_window_us=jitter, reliable=False
    )
    env, fabric, boxes = rig(seed=seed, faults=plan)
    params = fabric.params
    for i in range(10):
        fabric.post(0, server_endpoint(1), i, payload_bytes=0)
    env.run()
    assert fabric.faults.stats.reordered > 0
    for envelope in boxes[1].items:
        floor = params.inter_latency_us + envelope.size_bytes * params.per_byte_us
        assert envelope.deliver_at >= envelope.sent_at + floor - 1e-9
        assert envelope.deliver_at <= envelope.sent_at + floor + jitter + \
            fabric._nic_free[0] + 1e-9
