"""Properties of ``Fabric.transmit`` as the one wire under both transports.

The raw fabric and the reliable layer hang different arrivals on the same
scheduled deliveries, so what a delivery *is* — a suppressed duplicate, a
frame a dead NIC ate, a node pair's crossing level — must read the same
whichever transport sent it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fabric import Fabric
from repro.net.faults import FaultPlan, LinkFaults
from repro.net.message import server_endpoint
from repro.net.params import NetworkParams
from repro.net.topology import Topology
from repro.sim.core import Environment
from repro.sim.primitives import Store
from repro.topo.hierarchy import Hierarchy, LevelSpec

NODES = 4


def rig(link: LinkFaults, reliable: bool, seed: int, **overrides):
    env = Environment()
    plan = FaultPlan(default=link, seed=seed, reliable=reliable)
    # A first retry far beyond any spiked round trip: every retransmission
    # below is one the black hole provoked, not an impatient timer.
    overrides.setdefault("retry_timeout_us", 10_000.0)
    fabric = Fabric(env, Topology(NODES), NetworkParams(faults=plan, **overrides))
    boxes = [Store(env) for _ in range(NODES)]
    for node, box in enumerate(boxes):
        fabric.register(server_endpoint(node), box)
    return env, fabric, boxes


node_pairs = st.tuples(
    st.integers(0, NODES - 1), st.integers(0, NODES - 1)
).filter(lambda pair: pair[0] != pair[1])
sizes = st.integers(min_value=0, max_value=4096)
probabilities = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def link_faults(draw, **fixed):
    fields = dict(
        drop_rate=draw(st.floats(min_value=0.0, max_value=0.6)),
        dup_rate=draw(probabilities),
        delay_rate=draw(probabilities),
        delay_spike_us=draw(st.floats(min_value=0.0, max_value=300.0)),
        reorder_rate=draw(probabilities),
        reorder_window_us=draw(st.floats(min_value=0.0, max_value=40.0)),
    )
    fields.update(fixed)
    return LinkFaults(**fields)


@given(
    pair=node_pairs,
    size=sizes,
    link=link_faults(drop_rate=0.0, dup_rate=1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_duplicated_reply_is_suppressed_alike_on_both_transports(pair, size, link, seed):
    src_node, dst_rank = pair
    seen = {}
    for reliable in (False, True):
        env, fabric, _boxes = rig(link, reliable, seed)
        event = env.event()
        arrivals = []
        event.callbacks.append(lambda ev: arrivals.append((env.now, ev.value)))
        fabric.post_reply(src_node, dst_rank, event, "answer", payload_bytes=size)
        env.run()
        assert fabric.faults.stats.duplicated >= 1
        seen[reliable] = (arrivals, fabric.stats.dup_suppressed, fabric.stats.replies)
    # Same fault stream, same price: the first copy triggers the event at
    # the same instant; the ghost copy is counted once and goes nowhere.
    assert seen[False] == seen[True]
    arrivals, suppressed, replies = seen[True]
    assert [value for _at, value in arrivals] == ["answer"]
    assert (suppressed, replies) == (1, 1)


@given(pair=node_pairs, size=sizes, link=link_faults(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_blackholed_endpoint_swallows_alike_on_both_transports(pair, size, link, seed):
    src_rank, dst_node = pair
    for reliable in (False, True):
        env, fabric, boxes = rig(link, reliable, seed, max_retries=2)
        fabric.blackhole(server_endpoint(dst_node))
        fabric.post(src_rank, server_endpoint(dst_node), "lost", payload_bytes=size)
        env.run()
        stats, injected = fabric.stats, fabric.faults.stats
        assert len(boxes[dst_node]) == 0
        # One count per physical copy that reached the dead NIC: every
        # attempt the link did not drop, plus its network duplicates.
        attempts = 1 + stats.retransmits
        assert stats.blackholed == attempts - injected.dropped + injected.duplicated
        assert stats.acks == stats.dup_suppressed == 0
        if reliable:
            # Silence is all the sender learns: its retry budget runs out.
            assert (attempts, stats.links_declared_dead) == (3, 1)
        else:
            assert attempts == 1


@given(
    arities=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_fabric_prices_the_level_the_hierarchy_names(arities, data):
    hierarchy = Hierarchy(
        tuple(
            LevelSpec(name=f"l{i}", arity=arity, latency_us=10.0 * (i + 1))
            for i, arity in enumerate(arities)
        )
    )
    # Node ids run past the outermost capacity: those pairs charge the
    # outermost level.
    nnodes = 2 * hierarchy.caps[-1] + 1
    nodes = st.integers(0, nnodes - 1)
    a, b = data.draw(st.tuples(nodes, nodes).filter(lambda pair: pair[0] != pair[1]))
    params = NetworkParams(hierarchy=hierarchy, per_byte_us=0.0)
    fabric = Fabric(Environment(), Topology(nnodes), params)
    [delivery] = fabric.transmit(a, b, 64, None, (), None)
    level = hierarchy.crossing_level(a, b)
    assert delivery.delay == 10.0 * (level + 1)
    assert hierarchy.link(a, b, params.inter_latency_us, 0.0) == (delivery.delay, 0.0)
