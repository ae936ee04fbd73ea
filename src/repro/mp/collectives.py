"""Collective operations built from point-to-point messages.

The paper's new ``ARMCI_Barrier()`` leans on two collectives:

* a **binary-exchange elementwise sum** of the ``op_init[]`` arrays
  (Figure 2 of the paper — a recursive-doubling allreduce); and
* a **binary-exchange barrier** (the ``MPI_Barrier`` pattern of §3.1.2),
  realized here as a dissemination barrier, which has the identical
  ``ceil(log2 N)`` one-latency phases and also handles non-powers-of-two.

Both, and the combining tree the topology-aware and NIC barriers use, are
written once as transport-agnostic *patterns* (:func:`sum_pattern`,
:func:`dissemination_pattern`, :func:`tree_pattern`) and run over a *port*
(see :func:`host_port`).

All collectives are sub-generators over a :class:`~repro.mp.comm.Comm` and
assume SPMD call order (every rank invokes the same collectives in the same
order); a per-communicator sequence number keeps concurrent invocations'
messages from cross-matching.  :class:`PricePort` runs the same collectives
without a simulator, to price them.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, List, Sequence

from ..net.params import MEMBERSHIP_POLL_US, MSG_HEADER_BYTES
from .comm import ANY_SOURCE, Comm, MPMessage
from .vector import CountVector, ValueVector

__all__ = [
    "host_port",
    "PricePort",
    "sum_pattern",
    "dissemination_pattern",
    "tree_pattern",
    "barrier",
    "allreduce_vector",
    "allreduce_sum",
    "allreduce_sum_fig2",
    "allgather",
    "resilient_exchange",
]

_TAG_BARRIER = 1 << 24
_TAG_ALLREDUCE = 2 << 24
_TAG_ALLGATHER = 5 << 24
_ROUND_STRIDE = 64


def _next_seq(comm: Comm) -> int:
    seq = getattr(comm, "_coll_seq", 0)
    comm._coll_seq = seq + 1
    return seq


def _san_monitor(comm: Comm):
    """RMCSan monitor, if one is installed on the communicator's env.

    Only collectives with *all-to-all* dependence (every rank's exit
    transitively depends on every rank's enter) emit enter/exit events —
    joining all enters at an exit would be unsound for rooted collectives
    like a broadcast or a gather.
    """
    return getattr(comm.env, "_sync_monitor", None)


def _tag(base: int, seq: int, round_no: int) -> int:
    return base + (seq % 4096) * _ROUND_STRIDE + round_no


def host_port(comm: Comm, base: int, seq: int, round0: int = 0):
    """The blocking host port: ``(send, recv)`` over ``comm``.

    A *port* is how a pattern below moves one message: ``send(dst, vector,
    round_no)`` and ``recv(src, round_no)`` each return a sub-generator,
    and what ``recv`` delivers carries the sender's vector as ``.payload``.
    Both are plain functions handing back ``comm``'s own generators, so a
    pattern's ``yield from`` delegates straight into the communicator (every
    generator frame in between is paid again on each resume of the rank).
    Round ``r`` of the pattern travels under tag round ``round0 + r``.
    """

    def send(dst, vector, round_no):
        return comm.send(
            dst, vector, tag=_tag(base, seq, round0 + round_no),
            payload_bytes=0 if vector is None else 8 * len(vector),
        )

    def recv(src, round_no):
        return comm.recv(source=src, tag=_tag(base, seq, round0 + round_no))

    return send, recv


# -- the three message patterns ----------------------------------------------------
#
# Every combined fence+barrier in the repo is built from these three
# schedules: the host algorithms of repro.topo.algorithms (the exchange
# among them), the exchange over the survivor view under a membership
# service (resilient_exchange below) and the NIC offload.  Each is written
# once, as a sub-generator for member ``vrank`` of the agreed list
# ``ranks``, and is run over a port: the blocking host port above, the
# resilient host port (receives that raise ``_EpochChanged``), the NIC engine's
# frame port, or the pricing port below.  ``acc`` and every payload are
# vectors of one kind (see :mod:`repro.mp.vector`): immutable, so nothing
# here copies one, and combined only with ``+``.


def sum_pattern(vrank: int, ranks: Sequence[int], send, recv, acc):
    """Recursive-doubling elementwise sum (paper Figure 2), any ``len(ranks)``.

    For powers of two this is exactly the paper's binary exchange: in phase
    ``x`` every member exchanges its partial vector with ``vrank XOR x`` and
    adds.  Otherwise the standard fold: the ``rem = n - 2**k`` highest
    "extra" members first fold their vectors into a partner, the
    power-of-two core runs binary exchange, then results are copied back
    out to the extras (two extra latencies, preserving O(log N)).
    Returns the fully reduced vector.
    """
    n = len(ranks)
    pof2 = 1 << (n.bit_length() - 1)
    rem = n - pof2
    round_no = 0
    if rem:
        # Extras are members [pof2, n); extra i folds into partner i - pof2
        # and sits out the core's log2(pof2) rounds.
        if vrank >= pof2:
            partner = ranks[vrank - pof2]
            yield from send(partner, acc, 0)
            msg = yield from recv(partner, pof2.bit_length())
            return msg.payload
        if vrank < rem:
            msg = yield from recv(ranks[vrank + pof2], 0)
            acc = acc + msg.payload
        round_no = 1
    x = 1
    while x < pof2:
        partner = ranks[vrank ^ x]
        yield from send(partner, acc, round_no)
        msg = yield from recv(partner, round_no)
        acc = acc + msg.payload
        x *= 2
        round_no += 1
    if vrank < rem:
        yield from send(ranks[vrank + pof2], acc, round_no)
    return acc


def dissemination_pattern(vrank: int, ranks: Sequence[int], send, recv, acc=None):
    """Dissemination barrier: ``ceil(log2 n)`` overlapped send+recv rounds.

    Equivalent in cost to the paper's binary-exchange ``MPI_Barrier``:
    each round is one overlapped exchange, so the communication time is
    ``log2(n)`` one-way latencies, for every ``n``.  Given a vector, round
    ``d`` ships the partial sum to ``vrank + d`` and adds the one from
    ``vrank - d``; for power-of-two ``n`` (only) every contribution is
    counted exactly once and the full sum is returned.
    """
    n = len(ranks)
    distance = 1
    round_no = 0
    while distance < n:
        yield from send(ranks[(vrank + distance) % n], acc, round_no)
        msg = yield from recv(ranks[(vrank - distance) % n], round_no)
        if acc is not None:
            acc = acc + msg.payload
        distance *= 2
        round_no += 1
    return acc


def tree_pattern(vrank: int, ranks: Sequence[int], send, recv, acc, radix: int):
    """Combining tree in heap order, root member 0: up (round 0), down (round 1).

    Member ``i``'s parent is ``(i - 1) // radix``.  With a vector the up
    pass reduces it and the down pass hands every member the root's totals
    (shared, not copied); with ``acc=None`` the same two passes are a
    gather + release barrier of zero-byte messages.
    """
    first = radix * vrank + 1
    children = ranks[first:first + radix]
    for child in children:
        msg = yield from recv(child, 0)
        if acc is not None:
            acc = acc + msg.payload
    if vrank:
        parent = ranks[(vrank - 1) // radix]
        yield from send(parent, acc, 0)
        msg = yield from recv(parent, 1)
        acc = msg.payload
    for child in children:
        yield from send(child, acc, 1)
    return acc


# -- the pricing port ----------------------------------------------------------------


class PricePort:
    """The pricing port: per-member clocks instead of an Environment.

    A send stamps its message with the arrival the fabric would give it and
    files it; a receive waits until a match is filed and moves the
    receiver's clock past its arrival.  One member per rank:
    ``mp_call_us`` + ``o_send_us`` to send, ``mp_call_us`` posted before
    the wait and ``o_recv_us`` after it (``shm_access_us`` within a node),
    a per-node NIC queue, and the crossing level's latency and per-byte
    cost under a hierarchy.  Faults are not priced.  Whatever runs over
    :meth:`comm` or :meth:`port` — a pattern, a collective, a
    topology-aware barrier — is priced by :meth:`run`.
    """

    def __init__(self, params, topology):
        p = self.params = params
        self.topology = topology
        self._node_of = topology._node_of
        # The profile: CPU per send and per receive, indexed by "same
        # node"; CPU a receive posts before its wait; the inter-node wire
        # ``(latency, per_byte)``, None when a hierarchy prices each pair.
        self._send_cpu = (p.mp_call_us + p.o_send_us, p.mp_call_us + p.shm_access_us)
        self._recv_cpu = (p.o_recv_us, p.shm_access_us)
        self._posted = p.mp_call_us
        self._wire = (
            (p.inter_latency_us, p.per_byte_us) if p.hierarchy is None else None
        )
        self._nic_free = [0.0] * topology.nnodes
        #: ``(dst, key)`` -> filed ``(arrival, src, payload)``, in filing order.
        self._filed = {}
        #: Member -> simulated µs; callers add work that sends nothing.
        self.clock = [0.0] * topology.nprocs
        self.sends = 0

    def _send(self, me, dst, key, payload, nbytes: int):
        p = self.params
        src_node = self._node_of[me]
        dst_node = self._node_of[dst]
        t = self.clock[me] = self.clock[me] + self._send_cpu[src_node == dst_node]
        if src_node == dst_node:
            arrival = t + p.intra_latency_us
        else:
            latency, per_byte = self._wire or p.hierarchy.link(
                src_node, dst_node, p.inter_latency_us, p.per_byte_us
            )
            xfer = (nbytes + MSG_HEADER_BYTES) * per_byte
            depart = max(self._nic_free[src_node], t)
            self._nic_free[src_node] = depart + xfer
            arrival = depart + xfer + latency
        self._filed.setdefault((dst, key), []).append((arrival, me, payload))
        self.sends += 1
        return (None,)  # one yield: a send ends the member's turn in the sweep

    def _recv(self, me, src, key):
        ready = self.clock[me] + self._posted
        while True:
            filed = self._filed.get((me, key), ())
            if src == ANY_SOURCE:  # the earliest filed arrival
                match = min(filed, key=lambda entry: entry[0], default=None)
            else:
                match = next((entry for entry in filed if entry[1] == src), None)
            if match is not None:
                break
            yield
        filed.remove(match)
        arrival, sender, payload = match
        same_node = self._node_of[sender] == self._node_of[me]
        self.clock[me] = max(ready, arrival) + self._recv_cpu[same_node]
        return MPMessage(sender, me, key, payload)

    def comm(self, rank: int) -> SimpleNamespace:
        """Member ``rank`` with the shape of its :class:`~repro.mp.comm.Comm`
        (``env=None``: no simulator, so no RMCSan monitor either)."""
        return SimpleNamespace(
            rank=rank, nprocs=self.topology.nprocs, topology=self.topology,
            params=self.params, env=None,
            send=lambda dst, payload, tag, payload_bytes: self._send(
                rank, dst, tag, payload, payload_bytes
            ),
            recv=lambda source, tag: self._recv(rank, source, tag),
        )

    def run(self, members) -> float:
        """Drive ``{member: generator}`` in lockstep; the latest clock.

        Each sweep resumes every member once and a send ends its turn, so
        members advance round by round and claim each NIC in round order.
        A sweep where nobody sends or finishes can never unblock: raises.
        """
        live = dict(members)
        while live:
            before = (self.sends, len(live))
            for member, gen in list(live.items()):
                try:
                    next(gen)
                except StopIteration:
                    del live[member]
            if (self.sends, len(live)) == before:
                raise RuntimeError(
                    f"unpriceable schedule: members {sorted(live)} can never unblock"
                )
        return max((self.clock[m] for m in members), default=0.0)


def barrier(comm: Comm):
    """The message-passing barrier: :func:`dissemination_pattern` over all ranks."""
    n = comm.nprocs
    if n == 1:
        return
    seq = _next_seq(comm)
    monitor = _san_monitor(comm)
    if monitor is not None:
        monitor.emit("coll_enter", coll="barrier", epoch=seq)
    send, recv = host_port(comm, _TAG_BARRIER, seq)
    yield from dissemination_pattern(comm.rank, range(n), send, recv)
    if monitor is not None:
        monitor.emit("coll_exit", coll="barrier", epoch=seq)


def allreduce_vector(comm: Comm, vector):
    """Elementwise-sum allreduce of a vector: :func:`sum_pattern` over all ranks.

    Returns the fully reduced vector, of the kind it was given.
    """
    n = comm.nprocs
    if n == 1:
        return vector
    seq = _next_seq(comm)
    monitor = _san_monitor(comm)
    if monitor is not None:
        monitor.emit("coll_enter", coll="allreduce", epoch=seq)
    send, recv = host_port(comm, _TAG_ALLREDUCE, seq)
    total = yield from sum_pattern(comm.rank, range(n), send, recv, vector)
    if monitor is not None:
        monitor.emit("coll_exit", coll="allreduce", epoch=seq)
    return total


def allreduce_sum(comm: Comm, values: Sequence[Any]) -> List[Any]:
    """:func:`allreduce_vector` of any sequence of numbers; returns a new list."""
    total = yield from allreduce_vector(comm, ValueVector(values))
    return total.tolist()


def allreduce_sum_fig2(comm: Comm, values: Sequence[Any]) -> List[Any]:
    """The paper's Figure 2, line by line (power-of-two process counts).

    ::

        x = N / 2;
        while (x > 0) {
            send op_init[0..N-1] to process (my_id XOR x);
            receive into temp[0..N-1] from process (my_id XOR x);
            op_init[0..N-1] = op_init[0..N-1] + temp[0..N-1];
            x = x / 2;
        }

    Provided for fidelity and property-testing; :func:`allreduce_sum` is
    the general-N production version (same exchanges in the power-of-two
    case, just walked in the opposite mask order).
    """
    n = comm.nprocs
    if n & (n - 1):
        raise ValueError(f"Figure 2 requires a power-of-two process count, got {n}")
    acc = ValueVector(values)
    if n == 1:
        return acc.tolist()
    seq = _next_seq(comm)
    monitor = _san_monitor(comm)
    if monitor is not None:
        monitor.emit("coll_enter", coll="allreduce", epoch=seq)
    nbytes = 8 * len(acc)
    x = n // 2
    round_no = 0
    while x > 0:
        partner = comm.rank ^ x
        msg = yield from comm.sendrecv(
            partner, acc, tag=_tag(_TAG_ALLREDUCE, seq, round_no),
            payload_bytes=nbytes,
        )
        acc = acc + msg.payload
        x //= 2
        round_no += 1
    if monitor is not None:
        monitor.emit("coll_exit", coll="allreduce", epoch=seq)
    return acc.tolist()


def allgather(comm: Comm, value: Any) -> List[Any]:
    """Gather one value per rank to every rank (ring algorithm)."""
    n = comm.nprocs
    result: List[Any] = [None] * n
    result[comm.rank] = value
    if n == 1:
        return result
    seq = _next_seq(comm)
    monitor = _san_monitor(comm)
    if monitor is not None:
        monitor.emit("coll_enter", coll="allgather", epoch=seq)
    right = (comm.rank + 1) % n
    left = (comm.rank - 1) % n
    carried = (comm.rank, value)
    for step in range(n - 1):
        tag = _tag(_TAG_ALLGATHER, seq, step)
        msg = yield from comm.sendrecv(right, carried, source=left, tag=tag)
        src_rank, src_value = msg.payload
        result[src_rank] = src_value
        carried = (src_rank, src_value)
    if monitor is not None:
        monitor.emit("coll_exit", coll="allgather", epoch=seq)
    return result


# -- the exchange over the survivor view -------------------------------------------
#
# What every host ARMCI_Barrier runs once a fault plan installs a
# MembershipService (see repro.runtime.membership); fault-free runs never
# construct any of this.  The protocol per stage of one barrier instance:
#
# 1. run the exchange's pattern, but *compacted over the survivor view*
#    and with the membership epoch encoded in the tag;
# 2. every receive is a peek-poll loop, so a partner's death cannot wedge
#    the collective — when the view changes, all blocked survivors abandon
#    the exchange and restart it under the new view (stale pre-crash
#    messages no longer match: different epoch bits in the tag);
# 3. a survivor that *completes* the instance records the result in the
#    membership's completion ledger.  Restarting peers adopt the recorded
#    result instead of waiting for the finished rank to re-participate
#    (it never will) — the one coordination step that cannot be rebuilt
#    from messages alone after a failure.

_TAG_CHAOS = 7 << 24


class _EpochChanged(Exception):
    """The membership view moved while blocked in a resilient collective."""


def _chaos_tag(inst: int, epoch: int, round_no: int) -> int:
    """Tag for crash-aware collectives: instance + view epoch + round.

    The epoch bits keep messages from an abandoned pre-crash attempt from
    matching the restarted exchange's receives.  Eight epoch bits mean a
    single instance would need 256 view changes (e.g. a node crash taking
    256 hosted ranks with it) before a stale message's tag could alias the
    restarted exchange and corrupt its sums.
    """
    return _TAG_CHAOS | ((inst % 1024) << 14) | ((epoch % 256) << 6) | (round_no % 64)


def _resilient_recv(comm: Comm, membership, source: int, tag: int, epoch0: int, restart_check):
    """Receive that polls liveness instead of blocking indefinitely.

    Raises :class:`_EpochChanged` if the membership epoch moves past
    ``epoch0`` — or if ``restart_check`` reports the whole instance already
    completed — while no matching message has arrived.
    """
    while True:
        for envelope in comm.mailbox.items:
            msg = envelope.payload
            if getattr(msg, "tag", None) == tag and getattr(msg, "src", None) == source:
                received = yield from comm.recv(source=source, tag=tag)
                return received
        if membership.epoch != epoch0 or restart_check():
            raise _EpochChanged()
        yield MEMBERSHIP_POLL_US


def _survivor_port(comm: Comm, membership, key, chan: int, epoch0: int):
    """The resilient host port: ``(vrank, ranks, send, recv)`` over the view.

    Same shape as :func:`host_port`, but compacted over ``epoch0``'s
    survivor view, tagged with the epoch, and with receives that abandon
    the attempt instead of blocking on a dead partner.
    """
    ranks = membership.view(epoch0)
    if comm.rank not in ranks:  # pragma: no cover - dead ranks' processes are killed
        raise _EpochChanged()

    def restart() -> bool:
        # True once the instance completed under an epoch older than ours.
        entry = membership.ledger_get(key)
        return entry is not None and entry[1] < epoch0

    def send(dst, vector, round_no):
        return comm.send(
            dst, vector, tag=_chaos_tag(chan, epoch0, round_no),
            payload_bytes=0 if vector is None else 8 * len(vector),
        )

    def recv(src, round_no):
        return _resilient_recv(
            comm, membership, src, _chaos_tag(chan, epoch0, round_no), epoch0, restart
        )

    return ranks.index(comm.rank), ranks, send, recv


def resilient_exchange(comm: Comm, membership, inst: int, counts=None):
    """One stage of the exchange over the survivor view; ``(value, epoch)``.

    With ``counts`` (the caller's live ``op_init``, snapshotted at each
    attempt) stage 1, :func:`sum_pattern`: totals cumulative over the
    *original* universe (the lowest survivor folds in dead ranks' kill-time
    snapshots; the caller subtracts ``membership.written_off``).  Without,
    stage 3, :func:`dissemination_pattern`.  ``inst`` is agreed by SPMD
    call order.  An attempt over one epoch's view is retried when the view
    changes (:class:`_EpochChanged`); the value goes into the membership
    ledger, and a rank that finds it there under an older epoch adopts it.
    ``epoch`` is the view epoch the value was computed under.
    """
    if counts is None:
        # Tag channel 2*inst+1: distinct from this instance's allreduce.
        key, chan, pattern = ("barrier", inst), 2 * inst + 1, dissemination_pattern
    else:
        key, chan, pattern = ("allreduce", inst), 2 * inst, sum_pattern
    while True:
        if not membership.in_view(comm.rank):
            # Excluded (partition minority): wait out the freeze instead of
            # spinning on a view that omits us.  The rejoin advances the
            # epoch, so the adoption check below picks up the instance the
            # majority completed in the meantime.  No-op for crash plans —
            # a dead rank's process never runs.
            yield from membership.freeze_gate(comm.rank)
            continue
        epoch0 = membership.epoch
        entry = membership.ledger_get(key)
        if entry is not None and entry[1] < epoch0:
            return entry
        try:
            vrank, ranks, send, recv = _survivor_port(comm, membership, key, chan, epoch0)
            acc = None
            if counts is not None:
                acc = CountVector(counts)
                if vrank == 0:
                    # The lowest survivor contributes the dead ranks'
                    # snapshots so the totals remain comparable with the
                    # targets' cumulative op_done.
                    acc = acc + membership.dead_contribution(epoch0)
            value = yield from pattern(vrank, ranks, send, recv, acc)
        except _EpochChanged:
            continue
        membership.ledger_put(key, value, epoch=epoch0)
        return value, epoch0
