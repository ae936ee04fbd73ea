"""The stage bodies of the combined fence+barrier.

Three topology-aware alternatives to the paper's flat binary exchange
(:func:`repro.mp.collectives.exchange_sync`).
:func:`repro.armci.barrier.armci_barrier` runs each, as it runs the
exchange, as the paper's three stages (§3.1.2): ``stage1()`` distributes
the ``op_init[]`` totals and returns this rank's stage-2 target, the one
``op_done`` wait follows, ``stage3()`` synchronizes — so all share one
fence-inclusion guarantee:

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

Each, like the exchange, is ``sync(me, view, port, counts) -> (stage1,
stage3)`` for rank ``me``: ``view`` is the agreed, sorted list of
participating ranks, the port (see :class:`~repro.mp.collectives.HostPort`)
moves its messages and ``counts`` is its stage-1 vector; ``stage1()``
returns ``(target, totals)``, ``totals`` ``None`` where the body learns
only this rank's slot.
All run the shared message patterns of :mod:`repro.mp.collectives`:
fault-free over every rank and the host port (so link faults and the
reliable delivery layer apply unchanged), over the survivor view and port
(:func:`~repro.mp.collectives.barrier_stages`), and over a
:class:`~repro.mp.collectives.PricePort` member when ``auto`` prices them.
SPMD call order is assumed; the port keeps successive barriers' messages
from cross-matching, with distinct round offsets per stage inside one
barrier.
"""

from __future__ import annotations

import functools

from ..mp.collectives import dissemination_pattern, exchange_sync, sum_pattern, tree_pattern
from ..mp.comm import ANY_SOURCE

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


def kary_sync(me, view, port, counts):
    """Three-stage barrier over a k-ary combining tree in ``view``'s heap
    order, rooted at its lowest rank.

    Stage 1 reduces the ``op_init`` vectors up the tree and hands the
    totals back down; stage 3 is the same tree with zero-byte messages.
    """
    vrank = view.index(me)
    radix = port.params.tree_radix

    def stage1():
        send, recv = port.channel(_TAG_KARY, _R_GATHER)
        totals = yield from tree_pattern(vrank, view, send, recv, counts, radix)
        return totals[me], totals

    def stage3():
        send, recv = port.channel(_TAG_KARY, _R_STAGE3)
        return tree_pattern(vrank, view, send, recv, None, radix)

    return stage1, stage3


def dissemination_sync(me, view, port, counts):
    """Three-stage barrier with a dissemination-sum stage 1.

    For power-of-two N the dissemination pattern computes the exact
    elementwise sum in ``log2 N`` rounds with no separate broadcast; any
    other N falls back to the exchange's stage 1, the binary exchange with
    the standard fold (same asymptotics, two extra latencies).  Stage 3 is
    the exchange's.
    """
    n = len(view)
    exchange1, exchange3 = exchange_sync(me, view, port, counts)
    if n & (n - 1):
        return exchange1, exchange3
    vrank = view.index(me)

    def stage1():
        send, recv = port.channel(_TAG_DISSEM, _R_ALLREDUCE)
        totals = yield from dissemination_pattern(vrank, view, send, recv, counts)
        return totals[me], totals

    return stage1, exchange3


@functools.lru_cache(maxsize=16)
def _leaders(topology, view):
    """The lowest ``view`` rank on each node that hosts one, in node order
    (computed once per view: every leader of a barrier asks)."""
    first = {}
    for rank in view:
        first.setdefault(topology.node_of(rank), rank)
    return tuple(first[node] for node in sorted(first))


def twolevel_sync(me, view, port, counts):
    """Node-leader gathers locally, leaders exchange, leaders release.

    A node's leader is its lowest ``view`` rank, its followers the rest of
    its ``view`` ranks.  Stage 1: followers ship ``op_init`` to their
    leader over the intra-node queue; leaders sum and run a
    recursive-doubling exchange among themselves (one vector per node on
    the wire), then hand each follower its own slot of the totals.  Stage 2
    is per-rank.  Stage 3: followers signal the leader, leaders run a
    dissemination barrier, leaders release followers.  The leader takes its
    followers' messages in arrival order (any-source receives).
    """
    topology = port.topology
    local = [rank for rank in topology.ranks_on(topology.node_of(me)) if rank in view]
    leader, followers = local[0], local[1:]
    if me == leader:
        leaders = _leaders(topology, view)
        vrank = leaders.index(me)

    def stage1():
        send, recv = port.channel(_TAG_TWOLEVEL)
        if me != leader:
            yield from send(leader, counts, _R_GATHER)
            msg = yield from recv(leader, _R_SCATTER)
            return msg.payload[0], None
        acc = counts
        for _ in followers:
            msg = yield from recv(ANY_SOURCE, _R_GATHER)
            acc = acc + msg.payload
        exchange = port.channel(_TAG_TWOLEVEL, _R_ALLREDUCE)
        totals = yield from sum_pattern(vrank, leaders, *exchange, acc)
        for rank in followers:
            yield from send(rank, [totals[rank]], _R_SCATTER)
        return totals[me], totals

    def stage3():
        send, recv = port.channel(_TAG_TWOLEVEL)
        if me != leader:
            yield from send(leader, None, _R_SIGNAL)
            yield from recv(leader, _R_RELEASE)
            return
        for _ in followers:
            yield from recv(ANY_SOURCE, _R_SIGNAL)
        exchange = port.channel(_TAG_TWOLEVEL, _R_STAGE3)
        yield from dissemination_pattern(vrank, leaders, *exchange)
        for rank in followers:
            yield from send(rank, None, _R_RELEASE)

    return stage1, stage3
