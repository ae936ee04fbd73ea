"""Per-node actor coalescing: one generator drives a node's ranks.

At N=16384 a faithful per-rank simulation is dominated by work that is
*homogeneous within a node*: every rank's intra-node put rides the same
shared-memory fast path, and the two-level barrier's intra-node
gather/scatter/signal/release phases serialize at the node leader with
per-rank costs that are pure arithmetic.  Coalescing replaces the
``procs_per_node`` generators of a node with **one actor per node** that

* charges the homogeneous intra-node phases analytically (one sleep
  per phase, priced by the formulas below — ``auto``'s estimates are not
  formulas but the patterns themselves, priced, see
  :func:`repro.armci.barrier.estimate_us`), and
* runs the *inter-node* phases for real: the actor is a rank in an
  ``nnodes``-process runtime (one rank per node, so actor rank == fabric
  node id and the hierarchy prices links exactly as in the full run),
  issuing the node's boundary put and the leaders' exchange/barrier as
  genuine simulated messages — NIC serialization, queueing, faults, and
  per-level latencies all still come from the fabric.

What is *not* simulated per-rank: the intra-node queue occupancy of
individual non-leader ranks, and the per-rank ``op_done`` polls for
operations that complete locally in shared memory (local puts need no
fence).  The leaders' exchange also carries per-*node* totals (vector
length ``nnodes``) where the full run carries per-*rank* totals (length
N); :func:`vector_inflation_us` charges the difference in serialization
time analytically so coalesced sync times stay comparable with the full
two-level run (accuracy asserted in tests).

Simulated event counts and memory then scale with ``nnodes`` instead of
N — the difference between N=16384 being a CI smoke test and being
infeasible.
"""

from __future__ import annotations

__all__ = [
    "intra_puts_charge_us",
    "gather_charge_us",
    "local_round_charge_us",
    "vector_inflation_us",
    "coalesced_scale_workload",
]


def intra_puts_charge_us(params, ppn: int, cells: int) -> float:
    """CPU time of the node's ``ppn - 1`` virtual intra-node puts.

    Each is a local shared-memory put: API entry, one queue access, and
    the payload memcpy.  Local puts complete synchronously and generate
    no fence traffic, matching the full run's ``puts_local`` path.
    """
    per_put = (
        params.api_call_us
        + params.shm_access_us
        + cells * 8 * params.mem_copy_per_byte_us
    )
    return (ppn - 1) * per_put


def local_round_charge_us(params, ppn: int) -> float:
    """One intra-node leader round: gather, scatter, signal, or release.

    The leader serializes ``ppn - 1`` queue operations (an MPI-layer
    call plus the shared-memory access each), after one intra-node
    delivery latency.
    """
    return (ppn - 1) * (params.mp_call_us + params.shm_access_us) + params.intra_latency_us


def gather_charge_us(params, ppn: int) -> float:
    """Stage-1 intra-node gather of ``op_init`` vectors to the leader."""
    return local_round_charge_us(params, ppn)


def vector_inflation_us(params, nprocs: int, nnodes: int) -> float:
    """Serialization time the leaders' exchange saves by carrying
    per-node totals (length ``nnodes``) instead of per-rank totals
    (length ``nprocs``): the per-phase byte difference priced at each
    phase's crossing-level per-byte cost."""
    extra_bytes = 8 * (nprocs - nnodes)
    if extra_bytes <= 0:
        return 0.0
    hierarchy = params.hierarchy
    total = 0.0
    distance = 1
    while distance < nnodes:
        per_byte = params.per_byte_us
        if hierarchy is not None:
            _lat, per_byte = hierarchy.link(
                0, distance, params.inter_latency_us, per_byte
            )
        total += extra_bytes * per_byte
        distance *= 2
    return total


def coalesced_scale_workload(ctx, leaders_algorithm: str, cfg, ppn: int):
    """Scalebench program for one per-node actor (see module docstring).

    ``ctx`` is a rank in an ``nnodes``-process runtime.  Each iteration:
    charge the node's virtual intra-node puts, issue the real boundary
    put to the next node's leader, then run the two-level barrier with
    analytic intra-node phases around a real ``leaders_algorithm``
    barrier among the actors.
    """
    from ..experiments.scalebench import PUT_CELLS

    params = ctx.armci.params
    nnodes = ctx.nprocs
    nprocs = nnodes * ppn
    right = (ctx.rank + 1) % nnodes
    addr = ctx.regions[right].alloc_named("scalebench", PUT_CELLS, initial=0.0)
    values = [float(ctx.rank)] * PUT_CELLS
    puts_charge = intra_puts_charge_us(params, ppn, PUT_CELLS)
    # gather before the leaders' exchange; scatter + signal + release after
    # (the serialized leader work is the same total either side of the
    # inter-node phases, and stage 2 for virtual local ops is free: local
    # puts complete synchronously in shared memory).
    pre_charge = gather_charge_us(params, ppn)
    post_charge = 3 * local_round_charge_us(params, ppn)
    inflation = vector_inflation_us(params, nprocs, nnodes)
    sw = ctx.stopwatch("ga_sync")
    for _iteration in range(cfg.iterations):
        if puts_charge > 0.0:
            yield puts_charge
        yield from ctx.armci.put_segments(right, [(addr, values)])
        sw.start()
        if pre_charge > 0.0:
            yield pre_charge
        yield from ctx.armci.barrier(algorithm=leaders_algorithm)
        if post_charge + inflation > 0.0:
            yield post_charge + inflation
        sw.stop()
    return sw.samples
