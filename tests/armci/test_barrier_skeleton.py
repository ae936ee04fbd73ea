"""The three-stage skeleton costs the barrier algorithms no generator frame.

A rank blocked in a barrier is resumed through every generator frame of its
``yield from`` chain, so a frame added between ``armci_barrier`` and the
message layer is paid again on every message of every stage.  The deepest
chain the exchange needs is its stage-1 receive, ``armci_barrier > stage1 >
allreduce_vector > sum_pattern > recv``: the skeleton is ``armci_barrier``
itself, not a function between it and the stage bodies.
"""

import pytest

from repro.net.params import myrinet2000
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress


def puts_then_barrier(ctx, algorithm):
    base = ctx.region.alloc(64 * ctx.nprocs, initial=0)
    for peer in range(ctx.nprocs):
        if peer != ctx.rank:
            yield from ctx.armci.put(GlobalAddress(peer, base + 64 * ctx.rank), [1] * 64)
    yield from ctx.armci.barrier(algorithm=algorithm)


def barrier_chains(algorithm, nprocs=8):
    """Every distinct frame chain below ``armci_barrier`` seen while the
    ranks are in the barrier, sampled each 0.5 simulated µs."""
    rt = ClusterRuntime(nprocs, params=myrinet2000())
    procs = rt.spawn(puts_then_barrier, algorithm)
    chains = set()
    now = 0.0
    while any(p.is_alive for p in procs.values()):
        now += 0.5
        rt.env.run(until=now)
        for proc in procs.values():
            names, gen = [], proc._generator if proc.is_alive else None
            while gen is not None:
                names.append(gen.gi_code.co_name)
                gen = gen.gi_yieldfrom
            if "armci_barrier" in names:
                chains.add(tuple(names[names.index("armci_barrier") + 1:]))
    return chains


@pytest.mark.parametrize("algorithm", ["exchange", "kary", "dissemination", "twolevel"])
def test_no_frame_between_the_skeleton_and_the_message_layer(algorithm):
    chains = barrier_chains(algorithm)
    assert max(len(chain) for chain in chains) <= 4
    if algorithm == "exchange":
        assert ("stage1", "allreduce_vector", "sum_pattern", "recv") in chains
        assert ("_stage2", "wait_until") in chains  # the one stage 2
        assert ("barrier", "dissemination_pattern", "recv") in chains
