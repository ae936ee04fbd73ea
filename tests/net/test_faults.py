"""Unit tests for the fault-injection fabric (repro.net.faults)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fabric import Fabric
from repro.net.faults import (
    FaultInjector,
    FaultPlan,
    LinkFaults,
    Partition,
    ProcessCrash,
    ProcessStall,
)
from repro.net.message import server_endpoint
from repro.net.params import NetworkParams
from repro.net.topology import Topology
from repro.sim.core import Environment
from repro.sim.primitives import Store


def make_fabric(plan, nprocs=4, ppn=1, **overrides):
    """Fabric with a fault plan and deterministic (jitter-free) timing."""
    overrides.setdefault("per_byte_us", 0.0)
    overrides.setdefault("inter_latency_us", 1.0)
    env = Environment()
    params = NetworkParams(faults=plan, **overrides)
    topo = Topology(nprocs, procs_per_node=ppn)
    fabric = Fabric(env, topo, params)
    boxes = {}
    for node in range(topo.nnodes):
        boxes[("srv", node)] = Store(env, name=f"s{node}")
        fabric.register(server_endpoint(node), boxes[("srv", node)])
    return env, fabric, boxes


def drain(box):
    count = len(box)
    return [box.items.popleft() for _ in range(count)]


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="drop_rate"):
            LinkFaults(drop_rate=1.5)
        with pytest.raises(ValueError, match="dup_rate"):
            LinkFaults(dup_rate=-0.1)

    def test_magnitudes_must_be_non_negative(self):
        with pytest.raises(ValueError, match="delay_spike_us"):
            LinkFaults(delay_spike_us=-1.0)
        with pytest.raises(ValueError, match="dup_lag_us"):
            LinkFaults(dup_lag_us=-1.0)

    def test_params_reject_non_plan(self):
        with pytest.raises((TypeError, ValueError)):
            NetworkParams(faults="drop everything")


class TestPlan:
    def test_inactive_by_default(self):
        assert not LinkFaults().active
        assert LinkFaults(drop_rate=0.1).active
        assert LinkFaults(reorder_rate=0.1).active

    def test_per_link_override(self):
        plan = FaultPlan(links=(((0, 1), LinkFaults(drop_rate=1.0)),), reliable=False)
        env, fabric, boxes = make_fabric(plan)
        fabric.post(0, server_endpoint(1), "cut", payload_bytes=0)
        fabric.post(1, server_endpoint(0), "kept", payload_bytes=0)
        env.run()
        assert len(boxes[("srv", 1)]) == 0
        assert [e.payload for e in drain(boxes[("srv", 0)])] == ["kept"]

    def test_uniform_builder(self):
        plan = FaultPlan.uniform(drop_rate=0.2, dup_rate=0.1, seed=5)
        assert plan.default.drop_rate == 0.2
        assert plan.default.dup_rate == 0.1
        assert plan.seed == 5 and plan.reliable

    def test_plan_seed_overrides_network_seed(self):
        pinned = FaultInjector(FaultPlan(seed=5), fallback_seed=999)
        fallback = FaultInjector(FaultPlan(seed=None), fallback_seed=5)
        draws = lambda inj: [inj._rng.random() for _ in range(4)]
        assert draws(pinned) == draws(fallback)


class TestInjection:
    def test_drop_everything(self):
        plan = FaultPlan.uniform(drop_rate=1.0, reliable=False)
        env, fabric, boxes = make_fabric(plan)
        for i in range(5):
            fabric.post(0, server_endpoint(1), i)
        env.run()
        assert len(boxes[("srv", 1)]) == 0
        assert fabric.faults.stats.dropped == 5

    def test_duplicate_keeps_fabric_seq(self):
        plan = FaultPlan.uniform(dup_rate=1.0, reliable=False)
        env, fabric, boxes = make_fabric(plan)
        fabric.post(0, server_endpoint(1), "msg")
        env.run()
        copies = drain(boxes[("srv", 1)])
        assert len(copies) == 2
        assert copies[0].seq == copies[1].seq  # same logical message
        assert copies[1].deliver_at >= copies[0].deliver_at
        assert fabric.faults.stats.duplicated == 1

    def test_delay_spike(self):
        plan = FaultPlan.uniform(delay_rate=1.0, delay_spike_us=100.0, reliable=False)
        env, fabric, boxes = make_fabric(plan)
        fabric.post(0, server_endpoint(1), "late", payload_bytes=0)
        env.run()
        envelope = boxes[("srv", 1)].items.popleft()
        assert envelope.deliver_at == pytest.approx(101.0)
        assert fabric.faults.stats.delay_spikes == 1

    def test_intra_node_queue_is_reliable(self):
        plan = FaultPlan.uniform(drop_rate=1.0, dup_rate=1.0, reliable=False)
        env, fabric, boxes = make_fabric(plan, ppn=2)
        fabric.post(1, server_endpoint(0), "local")  # rank 1 lives on node 0
        env.run()
        assert len(boxes[("srv", 0)]) == 1
        assert fabric.faults.stats.dropped == 0

    def test_deterministic_per_seed(self):
        def delivered(seed):
            plan = FaultPlan.uniform(drop_rate=0.4, seed=seed, reliable=False)
            env, fabric, boxes = make_fabric(plan)
            for i in range(40):
                fabric.post(0, server_endpoint(1), i)
            env.run()
            return [e.payload for e in drain(boxes[("srv", 1)])]

        assert delivered(11) == delivered(11)
        assert delivered(11) != delivered(12)


class TestCrashScheduleNormalization:
    """FaultPlan crash schedules are validated and normalized (PR 6)."""

    def test_crash_at_zero_rejected(self):
        with pytest.raises(ValueError, match="at_us must be positive"):
            ProcessCrash(at_us=0.0, rank=1)

    def test_negative_crash_time_rejected(self):
        with pytest.raises(ValueError, match="at_us must be positive"):
            ProcessCrash(at_us=-5.0, node=0)

    def test_exactly_one_target(self):
        with pytest.raises(ValueError, match="exactly one"):
            ProcessCrash(at_us=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            ProcessCrash(at_us=1.0, rank=1, node=0)
        with pytest.raises(ValueError, match="exactly one"):
            ProcessCrash(at_us=1.0, rank=1, nic=0)

    def test_nic_target_accepted(self):
        crash = ProcessCrash(at_us=10.0, nic=3)
        assert crash.target == ("nic", 3)

    def test_duplicate_rank_entries_keep_earliest(self):
        plan = FaultPlan(
            crashes=(
                ProcessCrash(at_us=50.0, rank=2),
                ProcessCrash(at_us=20.0, rank=2),
                ProcessCrash(at_us=80.0, rank=2),
            )
        )
        assert plan.crashes == (ProcessCrash(at_us=20.0, rank=2),)

    def test_schedule_sorted_chronologically(self):
        plan = FaultPlan(
            crashes=(
                ProcessCrash(at_us=90.0, node=1),
                ProcessCrash(at_us=10.0, rank=3),
                ProcessCrash(at_us=40.0, nic=2),
            )
        )
        assert [c.at_us for c in plan.crashes] == [10.0, 40.0, 90.0]

    def test_rank_and_node_targets_are_distinct(self):
        # A node crash and a crash of one of its ranks are different
        # targets; both survive normalization (kill-time idempotency
        # resolves the overlap — see tests/runtime/test_membership.py).
        plan = FaultPlan(
            crashes=(
                ProcessCrash(at_us=30.0, node=1),
                ProcessCrash(at_us=10.0, rank=1),
            )
        )
        assert len(plan.crashes) == 2

    def test_normalization_is_deterministic(self):
        entries = (
            ProcessCrash(at_us=50.0, rank=2),
            ProcessCrash(at_us=50.0, node=1),
            ProcessCrash(at_us=50.0, nic=0),
        )
        import itertools

        schedules = {
            FaultPlan(crashes=perm).crashes
            for perm in itertools.permutations(entries)
        }
        assert len(schedules) == 1  # same normal form from any input order


# -- the injector against its earlier body ------------------------------------
#
# ``FaultInjector.delivery_offsets`` resolves link activity once per plan and
# skips the pause pass a plan has nothing for.  The body it
# replaced is kept here, verbatim but for ``self`` -> ``injector``, as the
# oracle: same delays, same draws, same counters.


def reference_delivery_offsets(injector, src_node, dst_node, dst, now, base_delay, intra_node):
    if intra_node:
        return _reference_pauses(injector, dst, now, [base_delay])
    if injector.plan.partitions and injector.plan.partitioned(src_node, dst_node, now):
        injector.stats.partition_dropped += 1
        return []
    faults = injector._links.get((src_node, dst_node), injector.plan.default)
    delays = []
    if faults.active:
        rng = injector._rng
        if faults.drop_rate > 0.0 and rng.random() < faults.drop_rate:
            injector.stats.dropped += 1
        else:
            delay = base_delay
            if faults.delay_rate > 0.0 and rng.random() < faults.delay_rate:
                injector.stats.delay_spikes += 1
                delay += faults.delay_spike_us
            if faults.reorder_rate > 0.0 and rng.random() < faults.reorder_rate:
                injector.stats.reordered += 1
                delay += rng.uniform(0.0, faults.reorder_window_us)
            delays.append(delay)
            if faults.dup_rate > 0.0 and rng.random() < faults.dup_rate:
                injector.stats.duplicated += 1
                delays.append(delay + rng.uniform(0.0, faults.dup_lag_us))
    else:
        delays.append(base_delay)
    return _reference_pauses(injector, dst, now, delays)


def _reference_pauses(injector, dst, now, delays):
    if not injector.plan.pauses or dst is None or dst[0] != "mp":
        return delays
    rank = dst[1]
    out = []
    for delay in delays:
        until = injector.plan.stall_until(rank, now + delay)
        if until is None:
            out.append(delay)
        else:
            injector.stats.pause_held += 1
            out.append(until - now)
    return out


INJECTOR_NODES = 3
rates = st.sampled_from([0.0, 0.0, 0.3, 1.0])
windows = st.tuples(
    st.floats(min_value=0.0, max_value=80.0), st.floats(min_value=1.0, max_value=80.0)
)
any_link = st.builds(
    LinkFaults,
    drop_rate=rates,
    dup_rate=rates,
    delay_rate=rates,
    delay_spike_us=st.floats(min_value=0.0, max_value=50.0),
    reorder_rate=rates,
    reorder_window_us=st.floats(min_value=0.0, max_value=20.0),
)
nodes = st.integers(0, INJECTOR_NODES - 1)


@st.composite
def fault_plans(draw):
    return FaultPlan(
        default=draw(any_link),
        links=tuple(
            draw(st.lists(st.tuples(st.tuples(nodes, nodes), any_link), max_size=3))
        ),
        partitions=tuple(
            Partition((node,), start, start + length)
            for node, (start, length) in draw(st.lists(st.tuples(nodes, windows), max_size=2))
        ),
        pauses=tuple(
            ProcessStall(rank, start, start + length)
            for rank, (start, length) in draw(st.lists(st.tuples(nodes, windows), max_size=2))
        ),
        seed=draw(st.integers(0, 2**16)),
    )


attempts = st.lists(
    st.tuples(
        nodes,
        nodes,
        st.one_of(st.none(), st.tuples(st.sampled_from(["srv", "mp", "nic"]), nodes)),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=30.0),
        st.booleans(),
    ),
    max_size=25,
)


@given(plan=fault_plans(), attempts=attempts)
@settings(max_examples=200, deadline=None)
def test_delivery_offsets_match_the_earlier_body(plan, attempts):
    fast, slow = FaultInjector(plan, 0), FaultInjector(plan, 0)
    for src, dst_node, dst, now, base, intra in attempts:
        assert fast.delivery_offsets(src, dst_node, dst, now, base, intra) == (
            reference_delivery_offsets(slow, src, dst_node, dst, now, base, intra)
        )
    assert dataclasses.asdict(fast.stats) == dataclasses.asdict(slow.stats)
    assert fast._rng.getstate() == slow._rng.getstate()
