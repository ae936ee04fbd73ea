"""Collectives under message reordering.

The MP layer matches by (source, tag), so — unlike the confirm-mode fence,
which the failure-injection tests show *does* depend on in-order delivery —
every collective must produce correct results under arbitrary delivery
jitter.  The jitter is the fault plan's reorder injector on the raw links:
every inter-node delivery gets a uniform extra delay in ``[0, 60]`` us, and
each test asserts that it fired."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp import collectives
from repro.net.faults import FaultPlan
from repro.net.params import myrinet2000
from repro.runtime.cluster import ClusterRuntime


def jittery_cluster(nprocs, seed, jitter=60.0, **kwargs):
    plan = FaultPlan.uniform(
        reorder_rate=1.0, reorder_window_us=jitter, reliable=False
    )
    return ClusterRuntime(
        nprocs, params=myrinet2000(seed=seed, faults=plan), **kwargs
    )


def run_jittered(rt, main):
    results = rt.run_spmd(main)
    assert rt.fabric.faults.stats.reordered > 0
    return results


@given(seed=st.integers(0, 5000), nprocs=st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_allreduce_correct_under_jitter(seed, nprocs):
    def main(ctx):
        result = yield from collectives.allreduce_sum(
            ctx.comm, [ctx.rank, ctx.rank * 2]
        )
        return result

    rt = jittery_cluster(nprocs, seed)
    expected = [sum(range(nprocs)), 2 * sum(range(nprocs))]
    for result in run_jittered(rt, main):
        assert result == expected


@given(seed=st.integers(0, 5000), nprocs=st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_barrier_holds_under_jitter(seed, nprocs):
    def main(ctx):
        yield ctx.compute(25.0 * ctx.rank)
        entered = ctx.now
        yield from collectives.barrier(ctx.comm)
        return (entered, ctx.now)

    rt = jittery_cluster(nprocs, seed)
    results = run_jittered(rt, main)
    assert min(r[1] for r in results) >= max(r[0] for r in results)


@given(seed=st.integers(0, 5000))
@settings(max_examples=20, deadline=None)
def test_repeated_collectives_under_jitter(seed):
    """Back-to-back collectives must not cross-match even when reordered."""

    def main(ctx):
        outputs = []
        for round_no in range(4):
            result = yield from collectives.allreduce_sum(ctx.comm, [round_no])
            outputs.append(result[0])
        yield from collectives.barrier(ctx.comm)
        gathered = yield from collectives.allgather(ctx.comm, ctx.rank)
        outputs.append(tuple(gathered))
        return outputs

    nprocs = 5
    rt = jittery_cluster(nprocs, seed)
    expected = [0, 5, 10, 15, tuple(range(nprocs))]
    for result in run_jittered(rt, main):
        assert result == expected


@given(seed=st.integers(0, 5000))
@settings(max_examples=15, deadline=None)
def test_new_barrier_correct_under_jitter_in_ack_mode(seed):
    """The full combined ARMCI_Barrier is reordering-safe in ack mode
    (completion is counted per-operation, not inferred from order)."""
    from repro.runtime.memory import GlobalAddress

    def main(ctx):
        base = ctx.region.alloc(1, initial=0)
        peer = (ctx.rank + 1) % ctx.nprocs
        yield from ctx.armci.put(GlobalAddress(peer, base), [ctx.rank + 1])
        yield from ctx.armci.barrier()
        return ctx.region.read(base)

    rt = jittery_cluster(4, seed, fence_mode="ack")
    assert run_jittered(rt, main) == [4, 1, 2, 3]


@given(seed=st.integers(0, 5000))
@settings(max_examples=15, deadline=None)
def test_new_barrier_reordering_safe_even_in_confirm_mode(seed):
    """A bonus property the paper doesn't point out: the new barrier counts
    completions (op_init vs op_done) instead of inferring them from message
    order, so it stays correct under reordering even on the GM-style
    subsystem — where the *old* AllFence provably breaks (see the fence
    failure-injection tests)."""
    from repro.runtime.memory import GlobalAddress

    def main(ctx):
        base = ctx.region.alloc(1, initial=0)
        peer = (ctx.rank + 1) % ctx.nprocs
        yield from ctx.armci.put(GlobalAddress(peer, base), [ctx.rank + 1])
        yield from ctx.armci.barrier(algorithm="exchange")
        return ctx.region.read(base)

    rt = jittery_cluster(4, seed, fence_mode="confirm")
    assert run_jittered(rt, main) == [4, 1, 2, 3]
