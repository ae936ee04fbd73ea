"""Adaptive retransmission timeout: Jacobson estimator, Karn's rule, cap.

With ``adaptive_retry=True`` the reliable layer estimates the RTO per
send channel (``srtt + 4 * rttvar``, RFC 6298 gains) instead of using the
fixed ``retry_timeout_us``.  Only first-attempt ACKs feed the estimator
(Karn's rule), and the timeout is clamped to
``[RTO_MIN_US, RTO_MAX_US]`` (20 us and 2000 us) with a deterministic
per-channel jitter of up to +10% on the cap so channels backed off
against a partitioned peer do not re-probe in lockstep at heal.
"""

from repro.net.fabric import Fabric
from repro.net.faults import FaultPlan, LinkFaults
from repro.net.message import server_endpoint
from repro.net.params import NetworkParams
from repro.net.reliable import RTO_MAX_US, RTO_MIN_US
from repro.net.topology import Topology
from repro.sim.core import Environment
from repro.sim.primitives import Store


def make_fabric(plan, nprocs=4, **overrides):
    overrides.setdefault("per_byte_us", 0.0)
    overrides.setdefault("inter_latency_us", 1.0)
    overrides.setdefault("retry_timeout_us", 20.0)
    overrides.setdefault("adaptive_retry", True)
    env = Environment()
    params = NetworkParams(faults=plan, **overrides)
    topo = Topology(nprocs, procs_per_node=1)
    fabric = Fabric(env, topo, params)
    boxes = {}
    for node in range(topo.nnodes):
        boxes[("srv", node)] = Store(env, name=f"s{node}")
        fabric.register(server_endpoint(node), boxes[("srv", node)])
    return env, fabric, boxes


def channel_of(fabric, key_pred):
    for key, channel in fabric.reliable._send_channels.items():
        if key_pred(key):
            return key, channel
    raise AssertionError("no matching send channel")


class TestEstimator:
    def test_clean_link_samples_every_frame(self):
        plan = FaultPlan.uniform(seed=1)
        env, fabric, boxes = make_fabric(plan)
        for i in range(10):
            fabric.post(0, server_endpoint(1), i)
        env.run()
        assert [e.payload for e in boxes[("srv", 1)].items] == list(range(10))
        assert fabric.stats.rtt_samples == 10
        _, channel = channel_of(fabric, lambda k: True)
        # On a jitter-free link every sample equals the true round trip,
        # so the smoothed estimate converges to it exactly.
        assert channel.srtt is not None and channel.srtt > 0.0

    def test_initial_rto_is_the_fixed_timeout(self):
        plan = FaultPlan.uniform(seed=1)
        env, fabric, _ = make_fabric(plan, retry_timeout_us=44.0)
        fabric.post(0, server_endpoint(1), "x")
        key, channel = channel_of(fabric, lambda k: True)
        # No RTT sample yet: the configured fixed timeout seeds the RTO
        # (clamped to the adaptive floor).
        assert channel.srtt is None
        rto = fabric.reliable._adaptive_rto(key, channel, attempt=1)
        assert rto == 44.0
        env.run()

    def test_estimated_rto_tracks_the_channel_rtt(self):
        plan = FaultPlan.uniform(seed=1)
        env, fabric, _ = make_fabric(
            plan, inter_latency_us=30.0, retry_timeout_us=500.0
        )
        for i in range(10):
            fabric.post(0, server_endpoint(1), i)
        env.run()
        key, channel = channel_of(fabric, lambda k: True)
        rto = fabric.reliable._adaptive_rto(key, channel, attempt=1)
        # srtt ~= 60us round trip, above the floor; the RTO must be of that
        # order, far from the 500us fixed setting it replaced.
        assert channel.srtt > RTO_MIN_US
        assert rto < 500.0
        assert channel.srtt <= rto <= 8.0 * channel.srtt

    def test_karn_rule_skips_retransmitted_frames(self):
        # Every ACK arrives long after the RTO (delay spike on the reverse
        # link), so every frame is retransmitted before its ACK lands —
        # none of those ACKs give an unambiguous RTT sample.
        plan = FaultPlan(
            links=(((1, 0), LinkFaults(delay_rate=1.0, delay_spike_us=300.0)),),
            seed=2,
        )
        env, fabric, boxes = make_fabric(plan, retry_timeout_us=20.0)
        for i in range(5):
            fabric.post(0, server_endpoint(1), i)
        env.run()
        assert [e.payload for e in boxes[("srv", 1)].items] == list(range(5))
        assert fabric.stats.retransmits > 0
        assert fabric.stats.rtt_samples == 0


class TestCap:
    def test_backoff_is_capped_with_deterministic_jitter(self):
        plan = FaultPlan.uniform(seed=3)
        env, fabric, _ = make_fabric(plan)
        fabric.post(0, server_endpoint(1), "x")
        fabric.post(0, server_endpoint(2), "y")
        env.run()
        reliable = fabric.reliable
        assert RTO_MAX_US == 2000.0
        rtos = []
        for key, channel in sorted(reliable._send_channels.items()):
            rto = reliable._adaptive_rto(key, channel, attempt=30)
            assert RTO_MAX_US <= rto <= 1.1 * RTO_MAX_US
            rtos.append(rto)
        # Different channels jitter differently (no lockstep re-probe)...
        assert len(set(rtos)) == len(rtos)
        # ...but each channel's jitter is a pure function of seed + key.
        env2, fabric2, _ = make_fabric(plan)
        fabric2.post(0, server_endpoint(1), "x")
        fabric2.post(0, server_endpoint(2), "y")
        env2.run()
        again = [
            fabric2.reliable._adaptive_rto(key, channel, attempt=30)
            for key, channel in sorted(fabric2.reliable._send_channels.items())
        ]
        assert again == rtos

    def test_floor_guards_degenerate_estimates(self):
        plan = FaultPlan.uniform(seed=4)
        env, fabric, _ = make_fabric(plan, inter_latency_us=0.001)
        for i in range(5):
            fabric.post(0, server_endpoint(1), i)
        env.run()
        key, channel = channel_of(fabric, lambda k: True)
        assert channel.srtt is not None and channel.srtt < 1.0
        assert RTO_MIN_US == 20.0
        assert fabric.reliable._adaptive_rto(key, channel, attempt=1) == 20.0


class TestDisabledMeansAbsent:
    def test_fixed_timeout_unchanged_without_the_flag(self):
        # adaptive_retry=False: the timer math is the pre-existing fixed
        # backoff, and no RTT samples are ever taken.
        plan = FaultPlan.uniform(drop_rate=0.2, seed=5)
        env, fabric, boxes = make_fabric(plan, adaptive_retry=False)
        for i in range(10):
            fabric.post(0, server_endpoint(1), i)
        env.run()
        assert [e.payload for e in boxes[("srv", 1)].items] == list(range(10))
        assert fabric.stats.rtt_samples == 0
        for _key, channel in fabric.reliable._send_channels.items():
            assert channel.srtt is None
