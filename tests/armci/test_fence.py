"""Tests for fence semantics in both subsystem styles (§3.1.1)."""

import pytest

from repro.net.faults import FaultPlan
from repro.net.params import myrinet2000
from repro.runtime.memory import GlobalAddress


def jittered(window_us, seed):
    """Every inter-node delivery delayed by a uniform ``[0, window_us]``:
    the fault plan's reorder injector, on the raw (unsequenced) links."""
    plan = FaultPlan.uniform(
        reorder_rate=1.0, reorder_window_us=window_us, reliable=False
    )
    return myrinet2000(seed=seed, faults=plan)


def put_fence_read(make_cluster, fence_mode):
    """Rank 0 puts then fences; rank 1 reads after being signalled."""

    def main(ctx):
        base = ctx.region.alloc(1, initial=0)
        if ctx.rank == 0:
            yield from ctx.armci.put(GlobalAddress(1, base), [42])
            yield from ctx.armci.fence(1)
            yield from ctx.comm.send(1, "go")
            return None
        yield from ctx.comm.recv(source=0)
        return ctx.region.read(base)

    rt = make_cluster(nprocs=2, fence_mode=fence_mode)
    return rt, rt.run_spmd(main)


class TestConfirmMode:
    def test_fence_guarantees_completion(self, make_cluster):
        _rt, results = put_fence_read(make_cluster, "confirm")
        assert results[1] == 42

    def test_fence_sends_message_when_dirty(self, make_cluster):
        rt, _ = put_fence_read(make_cluster, "confirm")
        assert rt.servers[1].stats.fences == 1

    def test_fence_clean_node_is_free(self, make_cluster):
        def main(ctx):
            ctx.region.alloc(1)
            yield from ctx.armci.fence((ctx.rank + 1) % ctx.nprocs)
            return None

        rt = make_cluster(nprocs=2, fence_mode="confirm")
        rt.run_spmd(main)
        assert rt.servers[0].stats.fences == 0
        assert rt.servers[1].stats.fences == 0

    def test_repeated_fence_only_first_sends(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1)
            if ctx.rank == 0:
                yield from ctx.armci.put(GlobalAddress(1, base), [1])
                yield from ctx.armci.fence(1)
                yield from ctx.armci.fence(1)
                yield from ctx.armci.fence(1)
            else:
                yield ctx.compute(1)

        rt = make_cluster(nprocs=2, fence_mode="confirm")
        rt.run_spmd(main)
        assert rt.servers[1].stats.fences == 1

    def test_own_node_never_fenced(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1)
            peer = ctx.rank ^ 1  # same node
            yield from ctx.armci.put(GlobalAddress(peer, base), [1])
            yield from ctx.armci.fence(peer)
            return None

        rt = make_cluster(nprocs=2, procs_per_node=2, fence_mode="confirm")
        rt.run_spmd(main)
        assert rt.servers[0].stats.fences == 0


class TestAckMode:
    def test_fence_guarantees_completion(self, make_cluster):
        _rt, results = put_fence_read(make_cluster, "ack")
        assert results[1] == 42

    def test_ack_fence_sends_no_fence_messages(self, make_cluster):
        rt, _ = put_fence_read(make_cluster, "ack")
        assert rt.servers[1].stats.fences == 0

    def test_outstanding_acks_tracked(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1)
            if ctx.rank == 0:
                yield from ctx.armci.put(GlobalAddress(1, base), [1])
                yield from ctx.armci.put(GlobalAddress(1, base), [2])
                before = ctx.armci._outstanding.get(ctx.topology.node_of(1), 0)
                yield from ctx.armci.fence(1)
                after = ctx.armci._outstanding.get(ctx.topology.node_of(1), 0)
                return (before, after)
            yield ctx.compute(1)
            return None

        rt = make_cluster(nprocs=2, fence_mode="ack")
        before, after = rt.run_spmd(main)[0]
        assert before > 0 and after == 0


class TestAllFence:
    def test_allfence_completes_all_targets(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(ctx.nprocs, initial=0)
            for peer in range(ctx.nprocs):
                if peer != ctx.rank:
                    yield from ctx.armci.put(
                        GlobalAddress(peer, base + ctx.rank), [1]
                    )
            yield from ctx.armci.allfence()
            yield from ctx.comm.send((ctx.rank + 1) % ctx.nprocs, "ok")
            yield from ctx.comm.recv(source=(ctx.rank - 1) % ctx.nprocs)
            # After MY allfence, *my* puts are done system-wide; the
            # neighbor's token confirms theirs too.
            return None

        rt = make_cluster(nprocs=4, fence_mode="confirm")
        rt.run_spmd(main)
        for rank in range(4):
            values = rt.regions[rank].read_many(0, 4)
            expected = [1 if r != rank else 0 for r in range(4)]
            assert values == expected

    def test_allfence_contacts_only_dirty_nodes(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1)
            if ctx.rank == 0:
                yield from ctx.armci.put(GlobalAddress(2, base), [1])
                yield from ctx.armci.allfence()
            else:
                yield ctx.compute(1)

        rt = make_cluster(nprocs=4, fence_mode="confirm")
        rt.run_spmd(main)
        assert rt.servers[1].stats.fences == 0
        assert rt.servers[2].stats.fences == 1
        assert rt.servers[3].stats.fences == 0

    def test_allfence_walks_nodes_in_ascending_order(self, make_cluster):
        """The convoy behaviour depends on the rank-order walk."""

        def main(ctx):
            base = ctx.region.alloc(1)
            if ctx.rank == 0:
                for peer in (3, 1, 2):
                    yield from ctx.armci.put(GlobalAddress(peer, base), [1])
                yield from ctx.armci.allfence()
            else:
                yield ctx.compute(1)

        rt = make_cluster(nprocs=4, fence_mode="confirm")
        order = []
        for node in (1, 2, 3):
            server = rt.servers[node]
            original = server._handle_fence

            def tracking(req, _node=node, _orig=original):
                order.append(_node)
                return _orig(req)

            server._handle_fence = tracking
        rt.run_spmd(main)
        assert order == [1, 2, 3]


class TestOrderingFailureInjection:
    """Confirm-mode fences rely on GM's in-order delivery; ack-mode does not.

    The vulnerable window is between a put and the following fence request
    from the same client: if the network may reorder them, the server
    confirms the fence before the put has been applied.  We observe the
    target cell *at the moment the server issues the confirmation*.
    """

    def _confirm_trial(self, make_cluster, jitter, seed, trials=60):
        """Returns how many trials confirmed the fence before the put."""
        from repro.armci.requests import FenceRequest, PutRequest
        from repro.net.message import server_endpoint
        from repro.sim.core import Event

        early_confirms = 0
        for trial in range(trials):
            params = jittered(jitter, seed + trial) if jitter else myrinet2000()
            rt = make_cluster(nprocs=2, fence_mode="confirm", params=params)
            base = rt.regions[1].alloc(1, initial=0)
            reply = Event(rt.env)
            rt.fabric.post(
                0, server_endpoint(1),
                PutRequest(src_rank=0, dst_rank=1, addr=base, values=[7]),
            )
            rt.fabric.post(
                0, server_endpoint(1), FenceRequest(src_rank=0, reply=reply)
            )
            at_confirm = []
            reply.callbacks.append(
                lambda _ev, r=rt, b=base: at_confirm.append(r.regions[1].read(b))
            )
            rt.env.run(until=reply)
            if jitter:
                assert rt.fabric.faults.stats.reordered > 0
            if at_confirm[0] == 0:
                early_confirms += 1
        return early_confirms

    def test_confirm_mode_breaks_under_reordering(self, make_cluster):
        """With delivery reordering, some fence confirmations precede the
        puts they are meant to cover — the GM in-order assumption made
        explicit."""
        assert self._confirm_trial(make_cluster, jitter=60.0, seed=100) > 0

    def test_confirm_mode_correct_in_order(self, make_cluster):
        assert self._confirm_trial(make_cluster, jitter=0.0, seed=100, trials=10) == 0

    def test_ack_mode_robust_under_reordering(self, make_cluster):
        """The ack-mode *client* cannot pass a fence until every put has been
        individually acknowledged, so reordering is harmless end-to-end."""

        def main(ctx, tag):
            base = tag
            if ctx.rank == 0:
                yield from ctx.armci.put(GlobalAddress(1, base), [7])
                yield from ctx.armci.fence(1)
                yield from ctx.comm.send(1, "go", tag=tag)
                return None
            yield from ctx.comm.recv(source=0, tag=tag)
            return ctx.region.read(base)

        trials = 40
        for trial in range(trials):
            rt = make_cluster(
                nprocs=2, fence_mode="ack", params=jittered(60.0, 500 + trial)
            )
            for region in rt.regions.values():
                region.alloc(trials, initial=0)
            results = rt.run_spmd(main, trial)
            assert rt.fabric.faults.stats.reordered > 0
            assert results[1] == 7, f"stale read in trial {trial}"
