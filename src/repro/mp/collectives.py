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
(see :class:`HostPort`).

All collectives are sub-generators over a :class:`~repro.mp.comm.Comm` and
assume SPMD call order (every rank invokes the same collectives in the same
order); a per-communicator sequence number keeps concurrent invocations'
messages from cross-matching.  :func:`exchange_sync` is the paper's
combined barrier's stage bodies, these two collectives over any view and
port; :class:`PricePort` runs the patterns without a simulator, to price
them, and :func:`barrier_stages` runs a stage body over the survivor view.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..net.params import MEMBERSHIP_POLL_US, MSG_HEADER_BYTES
from .comm import ANY_SOURCE, Comm, MPMessage
from .vector import CountVector, ValueVector

__all__ = [
    "HostPort",
    "PricePort",
    "sum_pattern",
    "dissemination_pattern",
    "tree_pattern",
    "exchange_sync",
    "barrier",
    "allreduce_sum",
    "allreduce_sum_fig2",
    "allgather",
    "barrier_stages",
]

#: The tag base of each whole collective a port opens.
_COLL_TAGS = {"barrier": 1 << 24, "allreduce": 2 << 24, "allgather": 5 << 24}
_ROUND_STRIDE = 64


def _tag(base: int, seq: int, round_no: int) -> int:
    return base + (seq % 4096) * _ROUND_STRIDE + round_no


class HostPort:
    """The blocking host port: one rank's messages over its ``comm``.

    A *port* is how a stage body or a pattern below moves messages.
    ``channel(base, round0)`` is ``(send, recv)`` on channel ``base`` of
    barrier instance ``seq``: ``send(dst, vector, round_no)`` and
    ``recv(src, round_no)`` each return a sub-generator, what ``recv``
    delivers carries the sender's vector as ``.payload``, and round ``r``
    travels as round ``round0 + r``.  ``open(coll)`` is the channel of one
    whole collective (``"allreduce"``, ``"barrier"``, ``"allgather"``),
    numbered by the communicator in SPMD call order and, under an RMCSan
    monitor, bracketed by ``coll_enter`` and, at ``close()``, ``coll_exit``
    (all-to-all dependence only: joining every enter at an exit would be
    unsound for a rooted collective).  ``params`` and ``topology`` are what
    the bodies read.  ``send`` and ``recv`` hand back ``comm``'s own
    generators, so a pattern's ``yield from`` delegates straight into the
    communicator (every generator frame in between is paid again on each
    resume of the rank).
    """

    __slots__ = ("comm", "seq", "params", "topology", "_opened")

    def __init__(self, comm: Comm, seq: int = 0):
        self.comm = comm
        self.seq = seq
        self.params = comm.params
        self.topology = comm.topology
        self._opened = None

    def channel(self, base, round0: int = 0):
        comm, receive = self.comm, self._recv
        first = self._tag(base, round0)  # round r travels as tag first + r

        def send(dst, vector, round_no):
            return comm.send(
                dst, vector, tag=first + round_no,
                payload_bytes=0 if vector is None else 8 * len(vector),
            )

        def recv(src, round_no):
            return receive(src, first + round_no)

        return send, recv

    def _tag(self, base: int, round0: int) -> int:
        return _tag(base, self.seq, round0)

    @property
    def _recv(self):
        return self.comm.recv  # ``(source, tag)``: no call in between

    def open(self, coll: str):
        comm = self.comm
        if comm.nprocs == 1:  # nothing to send: not numbered, not monitored
            return self.channel(0)
        seq = getattr(comm, "_coll_seq", 0)
        comm._coll_seq = seq + 1
        monitor = getattr(comm.env, "_sync_monitor", None)
        if monitor is not None:
            self._opened = (monitor, coll, seq)
            monitor.emit("coll_enter", coll=coll, epoch=seq)
        return HostPort(comm, seq).channel(_COLL_TAGS[coll])

    def close(self) -> None:
        if self._opened is not None:
            monitor, coll, seq = self._opened
            monitor.emit("coll_exit", coll=coll, epoch=seq)


# -- the three message patterns ----------------------------------------------------
#
# Every combined fence+barrier in the repo is built from these three
# schedules: the stage bodies of repro.topo.algorithms (the exchange among
# them), fault-free or over the survivor view, and the NIC offload.  Each
# is written once, as a sub-generator for member ``vrank`` of the agreed
# list ``ranks``, and is run over a port: the blocking host port above, the
# survivor port (receives that raise ``_EpochChanged``), the NIC engine's
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
    the members' :meth:`port` — a pattern or a barrier's stage bodies — is
    priced by :meth:`run`.
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

    def port(self, member: int) -> "_PricePort":
        """Member ``member``'s port (a :class:`HostPort`'s shape; no
        simulator, so no RMCSan monitor either)."""
        return _PricePort(self, member)

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


class _PricePort:
    """One member of a :class:`PricePort`; a message's key is its channel
    and round, and a whole collective is one more channel."""

    __slots__ = ("price", "me", "params", "topology")

    def __init__(self, price: PricePort, me: int):
        self.price = price
        self.me = me
        self.params = price.params
        self.topology = price.topology

    def channel(self, base, round0: int = 0):
        price, me = self.price, self.me

        def send(dst, vector, round_no):
            nbytes = 0 if vector is None else 8 * len(vector)
            return price._send(me, dst, (base, round0 + round_no), vector, nbytes)

        def recv(src, round_no):
            return price._recv(me, src, (base, round0 + round_no))

        return send, recv

    open = channel

    def close(self) -> None:
        pass


def exchange_sync(me, view, port, counts):
    """The paper's stages: the binary-exchange sum (Figure 2), then the
    binary-exchange barrier, each one whole collective of the port."""
    vrank = view.index(me)

    def stage1():
        send, recv = port.open("allreduce")
        totals = yield from sum_pattern(vrank, view, send, recv, counts)
        port.close()
        return totals[me], totals

    def stage3():
        yield from dissemination_pattern(vrank, view, *port.open("barrier"))
        port.close()

    return stage1, stage3


def barrier(comm: Comm):
    """The message-passing barrier: the exchange's stage 3 over all ranks."""
    return exchange_sync(comm.rank, range(comm.nprocs), HostPort(comm), None)[1]()


def allreduce_sum(comm: Comm, values: Sequence[Any]) -> List[Any]:
    """Elementwise-sum allreduce of any sequence of numbers:
    :func:`sum_pattern` over all ranks; returns a new list."""
    port = HostPort(comm)
    send, recv = port.open("allreduce")
    total = yield from sum_pattern(
        comm.rank, range(comm.nprocs), send, recv, ValueVector(values)
    )
    port.close()
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
    port = HostPort(comm)
    send, recv = port.open("allreduce")
    x = n // 2
    round_no = 0
    while x > 0:
        partner = comm.rank ^ x
        yield from send(partner, acc, round_no)
        msg = yield from recv(partner, round_no)
        acc = acc + msg.payload
        x //= 2
        round_no += 1
    port.close()
    return acc.tolist()


def allgather(comm: Comm, value: Any) -> List[Any]:
    """Gather one value per rank to every rank (ring algorithm)."""
    n = comm.nprocs
    result: List[Any] = [None] * n
    result[comm.rank] = value
    if n == 1:
        return result
    port = HostPort(comm)
    send, recv = port.open("allgather")
    right = (comm.rank + 1) % n
    left = (comm.rank - 1) % n
    carried = (comm.rank, value)
    for step in range(n - 1):
        yield from send(right, carried, step)
        msg = yield from recv(left, step)
        src_rank, src_value = msg.payload
        result[src_rank] = src_value
        carried = (src_rank, src_value)
    port.close()
    return result


# -- the stage bodies over the survivor view ---------------------------------------
#
# What every host ARMCI_Barrier runs once a fault plan installs a
# MembershipService (see repro.runtime.membership); fault-free runs never
# construct any of this.  The protocol per stage of one barrier instance:
#
# 1. run the stage body over the survivor view, with the membership epoch
#    encoded in the tag;
# 2. every receive is a peek-poll loop, so a partner's death cannot wedge
#    the collective — when the view changes, all blocked survivors abandon
#    the attempt and restart it under the new view (stale pre-crash
#    messages no longer match: different epoch bits in the tag);
# 3. a survivor that *completes* the instance records the result in the
#    membership's completion ledger.  Restarting peers adopt the recorded
#    result instead of waiting for the finished rank to re-participate
#    (it never will) — the one coordination step that cannot be rebuilt
#    from messages alone after a failure.

_TAG_CHAOS = 7 << 24


class _EpochChanged(Exception):
    """The membership view moved while blocked in a survivor-view stage."""


def _chaos_tag(inst: int, epoch: int, round_no: int) -> int:
    """Tag for crash-aware collectives: instance + view epoch + round.

    The epoch bits keep messages from an abandoned pre-crash attempt from
    matching the restarted exchange's receives.  Eight epoch bits mean a
    single instance would need 256 view changes (e.g. a node crash taking
    256 hosted ranks with it) before a stale message's tag could alias the
    restarted exchange and corrupt its sums.
    """
    return _TAG_CHAOS | ((inst % 1024) << 14) | ((epoch % 256) << 6) | (round_no % 64)


class _SurvivorPort(HostPort):
    """The survivor port: one attempt at one stage over ``epoch0``'s view.

    A :class:`HostPort`, but a stage is one tag channel ``chan`` whatever
    channels its body names, every tag carries the epoch, and a receive
    polls instead of blocking on a dead partner: it raises
    :class:`_EpochChanged` once the epoch moves past ``epoch0``, or once
    the ledger shows the stage ``key`` completed under an older epoch,
    while no matching message has arrived.
    """

    __slots__ = ("membership", "key", "chan", "epoch0")

    def __init__(self, comm: Comm, membership, key, chan: int, epoch0: int):
        super().__init__(comm)
        self.membership = membership
        self.key = key
        self.chan = chan
        self.epoch0 = epoch0

    def _tag(self, base, round0: int) -> int:
        # Every body's rounds stay below 64: no round carries into the epoch.
        return _chaos_tag(self.chan, self.epoch0, round0)

    def _recv(self, source: int, tag: int):
        comm, membership = self.comm, self.membership
        while True:
            for envelope in comm.mailbox.items:
                msg = envelope.payload
                if getattr(msg, "tag", None) == tag and (
                    source == ANY_SOURCE or getattr(msg, "src", None) == source
                ):
                    received = yield from comm.recv(source=source, tag=tag)
                    return received
            entry = membership.ledger_get(self.key)
            if membership.epoch != self.epoch0 or (entry and entry[1] < self.epoch0):
                raise _EpochChanged()
            yield MEMBERSHIP_POLL_US

    open = HostPort.channel  # unnumbered, unmonitored: ``close`` does nothing


def barrier_stages(sync, comm: Comm, membership, inst: int, op_init, fence):
    """``(stage1, stage3)`` of stage body ``sync`` for one rank, barrier ``inst``.

    Without a membership service: ``sync`` over every rank and the
    :class:`HostPort`, on a snapshot of ``op_init``.  Under one, each stage
    is attempted over one epoch's survivor view through a
    :class:`_SurvivorPort`, with ``sync`` built afresh, until an attempt
    completes.  Completing records the stage in the ledger (stage 1 its
    totals under ``("allreduce", inst)``, stage 3 ``None`` under
    ``("barrier", inst)``); a rank that finds its stage recorded under an
    older epoch adopts it instead of waiting for peers that have moved on.
    The lowest survivor folds the dead ranks' kill-time snapshots into its
    counts, so the totals stay cumulative over the original universe (the
    caller subtracts ``membership.written_off``).  Stage 3 returns the
    epochs the barrier reports: the one it ends in and the one stage 1's
    totals were computed under.
    """
    me = comm.rank
    if membership is None:
        return sync(me, range(comm.nprocs), HostPort(comm, inst), CountVector(op_init))
    result_epoch = None

    def stage(index: int):
        nonlocal result_epoch
        key = (("allreduce", "barrier")[index], inst)
        if index == 0:
            # Entered both directly and as the degrade target of the NIC
            # path, so the freeze gate runs here too: an excluded rank must
            # rejoin before it may participate in (or adopt results of) the
            # collective.
            yield from membership.freeze_gate(me)
            if membership.transient:
                entry = membership.ledger_get(key)
                if entry is not None and entry[1] < membership.epoch:
                    # This instance completed in the majority while we were
                    # cut off: we will adopt its recorded result instead of
                    # re-running the stage, so the collective cannot
                    # transitively fence *our* outstanding operations
                    # (nobody waits on our op_init).  Fence them explicitly
                    # to keep the barrier's fence-inclusion guarantee for the
                    # rejoined rank.
                    yield from fence()
        while True:
            if not membership.in_view(me):
                # Excluded (partition minority): wait out the freeze instead
                # of spinning on a view that omits us.  The rejoin advances
                # the epoch, so the adoption check below picks up the
                # instance the majority completed in the meantime.  No-op
                # for crash plans — a dead rank's process never runs.
                yield from membership.freeze_gate(me)
                continue
            epoch0 = membership.epoch
            entry = membership.ledger_get(key)
            if entry is not None and entry[1] < epoch0:
                totals, epoch0 = entry
                result = None if index else (totals[me], totals)
                break
            view = membership.view(epoch0)
            counts = None
            if index == 0:
                counts = CountVector(op_init)
                if view[0] == me:
                    counts = counts + membership.dead_contribution(epoch0)
            port = _SurvivorPort(comm, membership, key, 2 * inst + index, epoch0)
            try:
                result = yield from sync(me, view, port, counts)[index]()
            except _EpochChanged:
                continue
            if index:
                membership.ledger_put(key, None, epoch=epoch0)
            elif result[1] is not None:  # a two-level follower knows only its slot
                membership.ledger_put(key, result[1], epoch=epoch0)
            break
        if index:
            return {"view_epoch": membership.epoch, "result_epoch": result_epoch}
        result_epoch = epoch0
        return result

    return (lambda: stage(0)), (lambda: stage(1))
