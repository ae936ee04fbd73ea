"""Property test: reliable delivery makes link faults invisible upstream.

For each seed, a randomized put/acc/barrier SPMD workload runs twice — once
fault-free, once under seeded drops and duplications with the reliable
layer on — and the final memory state plus per-rank ``op_done`` counters
must match exactly.  The workload is built to have an
interleaving-independent correct answer: each rank puts only into its own
(disjoint) slot, accumulates are commutative, and barriers separate rounds,
so any divergence is a genuine delivery bug (lost, duplicated, reordered,
or double-applied operation).
"""

import random

import pytest

from repro.net.faults import FaultPlan
from repro.net.params import myrinet2000
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress

NPROCS = 4
SLOT_CELLS = 3
SEEDS = list(range(20))

DROP_RATE = 0.1
DUP_RATE = 0.05


def in_flight(reliable):
    """Unacknowledged frames across the transport's send channels."""
    return sum(len(ch.unacked) for ch in reliable._send_channels.values())


def resequencer_depth(reliable):
    """Frames buffered out of order at the transport's receivers."""
    return sum(len(ch.buffer) for ch in reliable._recv_channels.values())


def randomized_workload(ctx, seed):
    # Shared stream: decisions every rank must agree on (collective counts).
    shared = random.Random(f"prop:{seed}")
    # Per-rank stream: this rank's own operation mix.
    rng = random.Random(f"prop:{seed}:{ctx.rank}")
    base = ctx.region.alloc_named("prop.slots", ctx.nprocs * SLOT_CELLS, initial=0)
    acc_addr = ctx.region.alloc_named("prop.acc", 1, initial=0)
    rounds = shared.randint(2, 3)
    for _round in range(rounds):
        for _op in range(rng.randint(2, 5)):
            peer = rng.randrange(ctx.nprocs)
            if peer == ctx.rank:
                continue
            if rng.random() < 0.5:
                slot = base + ctx.rank * SLOT_CELLS
                values = [rng.randint(1, 99)] * SLOT_CELLS
                yield from ctx.armci.put(GlobalAddress(peer, slot), values)
            else:
                yield from ctx.armci.acc(GlobalAddress(peer, acc_addr), [rng.randint(1, 9)])
        yield from ctx.armci.barrier()
    return (
        tuple(ctx.region.read_many(base, ctx.nprocs * SLOT_CELLS)),
        ctx.region.read(acc_addr),
        ctx.armci.server.op_done(ctx.rank),
    )


def run_once(seed, plan):
    params = myrinet2000()
    if plan is not None:
        params = params.with_(faults=plan, retry_timeout_us=30.0)
    runtime = ClusterRuntime(NPROCS, params=params)
    states = runtime.run_spmd(randomized_workload, seed)
    return states, runtime


@pytest.mark.parametrize("seed", SEEDS)
def test_faulty_run_matches_fault_free_state(seed):
    clean_states, _ = run_once(seed, None)
    plan = FaultPlan.uniform(drop_rate=DROP_RATE, dup_rate=DUP_RATE, seed=seed)
    faulty_states, runtime = run_once(seed, plan)
    assert faulty_states == clean_states
    # The transport finished its job: nothing stuck in flight or buffered.
    assert in_flight(runtime.fabric.reliable) == 0
    assert resequencer_depth(runtime.fabric.reliable) == 0


def test_faults_were_actually_exercised():
    # Across the seed set the injector must have really dropped and
    # duplicated traffic (per-seed counts can legitimately be zero).
    dropped = retransmits = suppressed = 0
    for seed in SEEDS:
        plan = FaultPlan.uniform(drop_rate=DROP_RATE, dup_rate=DUP_RATE, seed=seed)
        _states, runtime = run_once(seed, plan)
        dropped += runtime.fabric.faults.stats.dropped
        retransmits += runtime.fabric.stats.retransmits
        suppressed += runtime.fabric.stats.dup_suppressed
    assert dropped > 0
    assert retransmits > 0
    assert suppressed > 0
