"""Unit tests for the server thread: request handling, FIFO semantics,
wake-up accounting, op_done counters, and the hybrid-lock server side."""

import pytest

from repro.armci.requests import (
    AccRequest,
    FenceRequest,
    GetRequest,
    LockRequest,
    PutRequest,
    RmwRequest,
    UnlockRequest,
)
from repro.net.fabric import Fabric
from repro.net.message import server_endpoint
from repro.net.params import NetworkParams
from repro.net.topology import Topology
from repro.runtime.memory import Region
from repro.runtime.server import ServerThread
from repro.sim.core import Environment, Event


def make_node(nprocs=2, ppn=1, **overrides):
    """Two-node rig: server on node 0 hosting rank 0; rank 1 remote."""
    env = Environment()
    params = NetworkParams(**overrides) if overrides else NetworkParams()
    topo = Topology(nprocs, procs_per_node=ppn)
    fabric = Fabric(env, topo, params)
    regions = {r: Region(env, r) for r in range(nprocs)}
    servers = {}
    for node in range(topo.nnodes):
        servers[node] = ServerThread(env, node, fabric, topo, params, regions)
        servers[node].start()
    return env, fabric, regions, servers, params


class TestPut:
    def test_put_writes_memory_and_counts(self):
        env, fabric, regions, servers, _ = make_node()
        base = regions[0].alloc(4)
        req = PutRequest(src_rank=1, dst_rank=0, addr=base, values=[1, 2, 3, 4])
        fabric.post(1, server_endpoint(0), req)
        env.run()
        assert regions[0].read_many(base, 4) == [1, 2, 3, 4]
        assert servers[0].op_done(0) == 1
        assert servers[0].stats.puts == 1

    def test_put_segments(self):
        env, fabric, regions, servers, _ = make_node()
        base = regions[0].alloc(10)
        req = PutRequest(
            src_rank=1,
            dst_rank=0,
            segments=[(base, [1, 2]), (base + 5, [9])],
        )
        assert req.total_cells() == 3
        fabric.post(1, server_endpoint(0), req)
        env.run()
        assert regions[0].read(base) == 1
        assert regions[0].read(base + 1) == 2
        assert regions[0].read(base + 5) == 9
        assert servers[0].op_done(0) == 1  # one op, not per segment

    def test_put_ack_mode_fires_ack_event(self):
        env, fabric, regions, _servers, _ = make_node()
        base = regions[0].alloc(1)
        ack = Event(env)
        req = PutRequest(src_rank=1, dst_rank=0, addr=base, values=[5], ack=ack)
        fabric.post(1, server_endpoint(0), req)
        env.run()
        assert ack.processed and ack.value == 1

    def test_put_wrong_node_raises(self):
        env, fabric, regions, _servers, _ = make_node()
        regions[1].alloc(1)
        req = PutRequest(src_rank=0, dst_rank=1, addr=0, values=[1])
        fabric.post(0, server_endpoint(0), req)  # rank 1 lives on node 1!
        with pytest.raises(ValueError, match="hosted on node"):
            env.run()


class TestGet:
    def test_get_replies_with_values(self):
        env, fabric, regions, _servers, _ = make_node()
        base = regions[0].alloc(3)
        regions[0].write_many(base, [7, 8, 9])
        reply = Event(env)
        req = GetRequest(src_rank=1, dst_rank=0, addr=base, count=3, reply=reply)
        fabric.post(1, server_endpoint(0), req)
        env.run()
        assert reply.value == [7, 8, 9]

    def test_get_segments_concatenates(self):
        env, fabric, regions, _servers, _ = make_node()
        base = regions[0].alloc(10)
        regions[0].write_many(base, list(range(10)))
        reply = Event(env)
        req = GetRequest(
            src_rank=1, dst_rank=0, segments=[(base + 2, 2), (base + 7, 1)], reply=reply
        )
        fabric.post(1, server_endpoint(0), req)
        env.run()
        assert reply.value == [2, 3, 7]

    def test_get_does_not_bump_op_done(self):
        env, fabric, regions, servers, _ = make_node()
        base = regions[0].alloc(1)
        reply = Event(env)
        fabric.post(
            1,
            server_endpoint(0),
            GetRequest(src_rank=1, dst_rank=0, addr=base, count=1, reply=reply),
        )
        env.run()
        assert servers[0].op_done(0) == 0


class TestAcc:
    def test_accumulate_adds(self):
        env, fabric, regions, servers, _ = make_node()
        base = regions[0].alloc(2)
        regions[0].write_many(base, [1.0, 2.0])
        req = AccRequest(src_rank=1, dst_rank=0, addr=base, values=[10.0, 20.0])
        fabric.post(1, server_endpoint(0), req)
        env.run()
        assert regions[0].read_many(base, 2) == [11.0, 22.0]
        assert servers[0].op_done(0) == 1


class TestRmw:
    @pytest.mark.parametrize(
        "op,setup,args,expected_result,expected_mem",
        [
            ("fetch_add", [5], (3,), 5, [8]),
            ("swap", [5], (9,), 5, [9]),
            ("cas", [5], (5, 7), True, [7]),
            ("cas", [5], (4, 7), False, [5]),
        ],
    )
    def test_scalar_ops(self, op, setup, args, expected_result, expected_mem):
        env, fabric, regions, _servers, _ = make_node()
        base = regions[0].alloc(len(setup))
        regions[0].write_many(base, setup)
        reply = Event(env)
        req = RmwRequest(
            src_rank=1, dst_rank=0, addr=base, op=op, args=args, reply=reply
        )
        fabric.post(1, server_endpoint(0), req)
        env.run()
        assert reply.value == expected_result
        assert regions[0].read_many(base, len(setup)) == expected_mem

    def test_pair_ops(self):
        env, fabric, regions, _servers, _ = make_node()
        base = regions[0].alloc(2)
        regions[0].write_many(base, [-1, -1])
        reply = Event(env)
        req = RmwRequest(
            src_rank=1, dst_rank=0, addr=base, op="swap_pair", args=((1, 42),),
            reply=reply,
        )
        fabric.post(1, server_endpoint(0), req)
        env.run()
        assert tuple(reply.value) == (-1, -1)
        assert regions[0].read_many(base, 2) == [1, 42]

    def test_unknown_op_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown rmw op"):
            RmwRequest(src_rank=0, dst_rank=0, addr=0, op="nope")


class TestFence:
    def test_fence_confirms_after_prior_puts(self):
        """FIFO: the fence reply happens after earlier puts completed."""
        env, fabric, regions, servers, _ = make_node()
        base = regions[0].alloc(1)
        reply = Event(env)
        fabric.post(
            1, server_endpoint(0),
            PutRequest(src_rank=1, dst_rank=0, addr=base, values=[1]),
        )
        fabric.post(1, server_endpoint(0), FenceRequest(src_rank=1, reply=reply))
        observed = []
        reply.callbacks.append(lambda ev: observed.append(regions[0].read(base)))
        env.run()
        assert observed == [1]
        assert servers[0].stats.fences == 1


class TestWakeAccounting:
    def test_sleeping_server_pays_wake(self):
        env, fabric, regions, servers, params = make_node(
            server_wake_us=50.0, server_proc_us=0.0, o_recv_us=0.0,
            inter_latency_us=1.0, per_byte_us=0.0, o_send_us=0.0,
        )
        base = regions[0].alloc(1)
        reply = Event(env)
        fabric.post(
            1, server_endpoint(0),
            GetRequest(src_rank=1, dst_rank=0, addr=base, count=1, reply=reply),
        )
        env.run()
        # deliver at 1.0 + wake 50 + reply path 1.0 (+ copy)
        assert env.now >= 52.0
        assert servers[0].stats.wakes == 1

    def test_back_to_back_requests_single_wake(self):
        env, fabric, regions, servers, _ = make_node(
            server_wake_us=50.0, inter_latency_us=1.0
        )
        base = regions[0].alloc(1)
        for _ in range(5):
            fabric.post(
                1, server_endpoint(0),
                PutRequest(src_rank=1, dst_rank=0, addr=base, values=[1]),
            )
        env.run()
        # All five arrive at ~t=1 before the server finishes waking: one wake.
        assert servers[0].stats.wakes == 1
        assert servers[0].stats.requests == 5


class TestOpDoneCells:
    def test_per_hosted_rank_counters(self):
        env, fabric, regions, servers, _ = make_node(nprocs=4, ppn=2)
        # node 0 hosts ranks 0, 1
        b0 = regions[0].alloc(1)
        b1 = regions[1].alloc(1)
        fabric.post(2, server_endpoint(0),
                    PutRequest(src_rank=2, dst_rank=0, addr=b0, values=[1]))
        fabric.post(2, server_endpoint(0),
                    PutRequest(src_rank=2, dst_rank=1, addr=b1, values=[1]))
        fabric.post(3, server_endpoint(0),
                    PutRequest(src_rank=3, dst_rank=1, addr=b1, values=[2]))
        env.run()
        assert servers[0].op_done(0) == 1
        assert servers[0].op_done(1) == 2

    def test_op_done_cell_for_foreign_rank_raises(self):
        _env, _fabric, _regions, servers, _ = make_node(nprocs=2)
        with pytest.raises(ValueError, match="not hosted"):
            servers[0].op_done_cell(1)


class TestHybridLockServerSide:
    def make_lock_rig(self):
        env, fabric, regions, servers, params = make_node(nprocs=3)
        base = regions[0].alloc_named("hybrid:L", 2, initial=0)
        return env, fabric, regions, servers, base

    def test_first_requester_granted_immediately(self):
        env, fabric, _regions, servers, base = self.make_lock_rig()
        reply = Event(env)
        fabric.post(1, server_endpoint(0),
                    LockRequest(src_rank=1, home_rank=0, base_addr=base, reply=reply))
        env.run()
        assert reply.value == 0  # ticket 0
        assert servers[0].stats.grants == 1

    def test_second_requester_queued_until_unlock(self):
        env, fabric, _regions, servers, base = self.make_lock_rig()
        r1, r2 = Event(env), Event(env)
        fabric.post(1, server_endpoint(0),
                    LockRequest(src_rank=1, home_rank=0, base_addr=base, reply=r1))
        fabric.post(2, server_endpoint(0),
                    LockRequest(src_rank=2, home_rank=0, base_addr=base, reply=r2))
        env.run()
        assert r1.processed and not r2.triggered
        assert sorted(servers[0]._lock_waiters[(0, base)]) == [1]
        fabric.post(1, server_endpoint(0),
                    UnlockRequest(src_rank=1, home_rank=0, base_addr=base, ticket=0))
        env.run()
        assert r2.processed and r2.value == 1
        assert sorted(servers[0]._lock_waiters[(0, base)]) == []

    def test_unlock_wakes_local_pollers_via_counter(self):
        env, fabric, regions, _servers, base = self.make_lock_rig()
        seen = []

        def poller():
            yield from regions[0].wait_until(base + 1, lambda v: v == 1)
            seen.append(env.now)

        env.process(poller())
        fabric.post(1, server_endpoint(0),
                    UnlockRequest(src_rank=1, home_rank=0, base_addr=base, ticket=0))
        env.run()
        assert len(seen) == 1


class TestIdempotentDispatch:
    """With faults enabled, the server dedups requests by (src_rank, seq).

    The fault plans here disable the reliable transport layer so raw
    network duplicates reach the server — exercising the at-most-once
    dispatch path directly (the plan's dedup is keyed on the fabric
    sequence number, which a network-duplicated copy shares).
    """

    def dup_plan(self):
        from repro.net.faults import FaultPlan, LinkFaults

        return FaultPlan(default=LinkFaults(dup_rate=1.0), reliable=False)

    def test_duplicate_put_applied_once(self):
        env, fabric, regions, servers, _ = make_node(faults=self.dup_plan())
        base = regions[0].alloc(1)
        fabric.post(
            1,
            server_endpoint(0),
            PutRequest(src_rank=1, dst_rank=0, addr=base, values=[7]),
        )
        env.run()
        assert regions[0].read(base) == 7
        assert servers[0].op_done(0) == 1  # not double-bumped
        assert servers[0].stats.puts == 1
        assert servers[0].stats.dup_requests == 1

    def test_duplicate_acc_not_double_accumulated(self):
        env, fabric, regions, servers, _ = make_node(faults=self.dup_plan())
        base = regions[0].alloc(1)
        fabric.post(
            1,
            server_endpoint(0),
            AccRequest(src_rank=1, dst_rank=0, addr=base, values=[5]),
        )
        env.run()
        assert regions[0].read(base) == 5  # 10 would mean double-apply
        assert servers[0].op_done(0) == 1
        assert servers[0].stats.dup_requests == 1

    def test_duplicate_request_replays_unanswered_reply(self):
        # Large latency: the duplicate reaches the server (dup lag <= 5us)
        # well before the first response reaches the requester, so the
        # server re-sends the cached reply rather than dropping the dup.
        env, fabric, regions, servers, _ = make_node(
            faults=self.dup_plan(), inter_latency_us=20.0
        )
        base = regions[0].alloc(1)
        regions[0].write_many(base, [42])
        reply = Event(env)
        fabric.post(
            1,
            server_endpoint(0),
            GetRequest(src_rank=1, dst_rank=0, addr=base, count=1, reply=reply),
        )
        env.run()
        assert reply.processed and reply.value == [42]  # triggered exactly once
        assert servers[0].stats.dup_requests == 1
        assert servers[0].stats.replayed_replies == 1
        assert fabric.stats.dup_suppressed >= 1  # extra reply copies suppressed

    def test_no_dedup_state_without_faults(self):
        from repro.net.faults import FaultPlan

        # No plan, or a plan under the reliable layer (which owns
        # exactly-once): no duplicate can reach the server.
        for faults in (None, FaultPlan.uniform(drop_rate=0.1, dup_rate=0.1)):
            _env, _fabric, _regions, servers, _ = make_node(faults=faults)
            assert not servers[0]._dedup
            assert servers[0]._applied is None and servers[0]._reply_cache is None
            assert servers[0].stats.dup_requests == 0

    def test_reply_rejects_negative_payload_cells(self):
        env, _fabric, _regions, servers, _ = make_node()
        with pytest.raises(ValueError, match="payload_cells"):
            next(servers[0]._reply(1, Event(env), None, payload_cells=-1))


class TestReliableTransportOwnsExactlyOnce:
    """Under the reliable layer the server keeps no per-request record."""

    def test_faulty_run_leaves_no_per_request_entry(self):
        from repro.net.faults import FaultPlan

        plan = FaultPlan.uniform(drop_rate=0.2, dup_rate=0.2, seed=7)
        env, fabric, regions, servers, _ = make_node(faults=plan)
        base = regions[0].alloc(60)
        replies = []
        for i in range(60):
            fabric.post(1, server_endpoint(0),
                        PutRequest(src_rank=1, dst_rank=0, addr=base + i, values=[i]))
            reply = Event(env)
            replies.append(reply)
            fabric.post(1, server_endpoint(0),
                        GetRequest(src_rank=1, dst_rank=0, addr=base + i, count=1,
                                   reply=reply))
        env.run()
        assert fabric.faults.stats.dropped > 0 and fabric.faults.stats.duplicated > 0
        assert regions[0].read_many(base, 60) == list(range(60))
        assert [r.value for r in replies] == [[i] for i in range(60)]
        assert servers[0].op_done(0) == 60
        assert servers[0].stats.requests == 120
        for server in servers.values():
            assert not server._applied and not server._reply_cache
            assert server.stats.dup_requests == 0
