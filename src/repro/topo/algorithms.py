"""The stage bodies of the topology-aware combined fence+barriers.

Three alternatives to the paper's flat binary exchange.
:func:`repro.armci.barrier.armci_barrier` runs each, as it runs the
exchange, as the paper's three stages (§3.1.2): ``stage1(seq)``
distributes the ``op_init[]`` totals and returns this rank's stage-2
target, the one ``op_done`` wait follows, ``stage3(seq)`` synchronizes —
so all share one fence-inclusion guarantee:

* ``kary`` — a k-ary combining tree (radix ``params.tree_radix``).
  Stage 1 reduces the ``op_init`` vectors up the tree and broadcasts the
  totals back down; stage 3 gathers and releases over the same tree.
  With radix = procs_per_node and block placement, each leaf group is
  one SMP node, so the widest tier of the tree stays on intra-node
  links.

* ``dissemination`` — stage 1 runs a dissemination *sum* (each round
  ``d`` sends the partial vector to ``rank + d`` and adds the one from
  ``rank - d``; for power-of-two N every contribution is counted exactly
  once).  Non-power-of-two N falls back to the binary exchange with the
  standard fold.  Stage 3 is the dissemination barrier.  Included as
  the topology-*oblivious* log-depth baseline: every round crosses
  node boundaries, so it prices what hierarchy-awareness buys.

* ``twolevel`` — the node-leader algorithm of the 1024-core barrier
  literature: non-leaders ship their ``op_init`` vectors to the node
  leader over intra-node (shared-memory queue) messages, the leaders
  alone run the inter-node exchange — one vector per *node* on the wire
  instead of one per rank, which removes the per-NIC serialization
  convoy that saturates the flat exchange at scale — and leaders
  release their locals after a leaders-only dissemination barrier.
  Stage 2 stays per-rank: every rank polls its own server's
  ``op_done`` counter.

All three run the shared message patterns of :mod:`repro.mp.collectives` over
the :class:`~repro.mp.comm.Comm` point-to-point layer (so link faults and
the reliable delivery layer apply unchanged) — or, when ``auto`` prices
them, over a :class:`~repro.mp.collectives.PricePort` member: the same
bodies either way.  Under a membership service none of them runs: every
host algorithm takes the exchange's patterns over the survivor view (see
``docs/fault_model.md``).  SPMD call order is assumed; the barrier
sequence number ``seq`` keeps successive barriers' messages from
cross-matching, with distinct round offsets per stage inside one barrier.
"""

from __future__ import annotations

from ..mp import collectives
from ..mp.collectives import dissemination_pattern, host_port, sum_pattern, tree_pattern
from ..mp.comm import ANY_SOURCE
from ..mp.vector import CountVector

__all__ = ["kary_sync", "dissemination_sync", "twolevel_sync"]

_TAG_TWOLEVEL = 8 << 24
_TAG_KARY = 9 << 24
_TAG_DISSEM = 10 << 24

# Round-offset map within one barrier's 64-round tag window (stride 64,
# see repro.mp.collectives._tag): gather, then up to 31 allreduce rounds,
# scatter/signal, then up to 29 stage-3 rounds, release.
_R_GATHER = 0
_R_ALLREDUCE = 1
_R_SCATTER = 32
_R_SIGNAL = 33
_R_STAGE3 = 34
_R_RELEASE = 63


# Each algorithm is ``sync(comm, counts) -> (stage1, stage3)`` for one rank:
# ``comm`` its Comm or PricePort member, ``counts`` its live ``op_init``.


def kary_sync(comm, counts):
    """Three-stage barrier over a k-ary combining tree rooted at rank 0.

    Stage 1 reduces the ``op_init`` vectors up the tree and hands the
    totals back down; stage 3 is the same tree with zero-byte messages.
    """
    rank = comm.rank
    ranks = range(comm.nprocs)
    radix = comm.params.tree_radix

    def stage1(seq):
        send, recv = host_port(comm, _TAG_KARY, seq, _R_GATHER)
        totals = yield from tree_pattern(
            rank, ranks, send, recv, CountVector(counts), radix
        )
        return totals[rank]

    def stage3(seq):
        send, recv = host_port(comm, _TAG_KARY, seq, _R_STAGE3)
        return tree_pattern(rank, ranks, send, recv, None, radix)

    return stage1, stage3


def dissemination_sync(comm, counts):
    """Three-stage barrier with a dissemination-sum stage 1.

    For power-of-two N the dissemination pattern computes the exact
    elementwise sum in ``log2 N`` rounds with no separate broadcast; any
    other N falls back to the binary exchange with the standard fold
    (same asymptotics, two extra latencies).
    """
    rank = comm.rank
    n = comm.nprocs

    def stage1(seq):
        if n & (n - 1):
            totals = yield from collectives.allreduce_vector(comm, CountVector(counts))
        else:
            send, recv = host_port(comm, _TAG_DISSEM, seq, _R_ALLREDUCE)
            totals = yield from dissemination_pattern(
                rank, range(n), send, recv, CountVector(counts)
            )
        return totals[rank]

    return stage1, lambda seq: collectives.barrier(comm)


def twolevel_sync(comm, counts):
    """Node-leader gathers locally, leaders exchange, leaders release.

    Stage 1: non-leaders ship ``op_init`` to their node leader over the
    intra-node queue; leaders sum and run a recursive-doubling exchange
    among themselves (one vector per node on the wire), then hand each
    local rank its own slot of the totals.  Stage 2 is per-rank.  Stage
    3: locals signal the leader, leaders run a dissemination barrier,
    leaders release locals.  The leader takes its locals' messages in
    arrival order (any-source receives).
    """
    rank = comm.rank
    topology = comm.topology
    node = topology.node_of(rank)
    leaders = topology.leaders
    leader = leaders[node]
    followers = topology.ranks_on(node)[1:]

    def stage1(seq):
        send, recv = host_port(comm, _TAG_TWOLEVEL, seq)
        if rank != leader:
            yield from send(leader, CountVector(counts), _R_GATHER)
            msg = yield from recv(leader, _R_SCATTER)
            return msg.payload[0]
        acc = CountVector(counts)
        for _ in followers:
            msg = yield from recv(ANY_SOURCE, _R_GATHER)
            acc = acc + msg.payload
        exchange = host_port(comm, _TAG_TWOLEVEL, seq, _R_ALLREDUCE)
        totals = yield from sum_pattern(node, leaders, *exchange, acc)
        for r in followers:
            yield from send(r, [totals[r]], _R_SCATTER)
        return totals[rank]

    def stage3(seq):
        send, recv = host_port(comm, _TAG_TWOLEVEL, seq)
        if rank != leader:
            yield from send(leader, None, _R_SIGNAL)
            yield from recv(leader, _R_RELEASE)
            return
        for _ in followers:
            yield from recv(ANY_SOURCE, _R_SIGNAL)
        exchange = host_port(comm, _TAG_TWOLEVEL, seq, _R_STAGE3)
        yield from dissemination_pattern(node, leaders, *exchange)
        for r in followers:
            yield from send(r, None, _R_RELEASE)

    return stage1, stage3

