"""Message fabric: delivery timing, NIC serialization, intra-node fast path.

The fabric turns "process X sends payload P to endpoint E" into a scheduled
delivery with a LogGP-style cost model:

* **Inter-node** (different SMP nodes): the message departs when the sending
  node's NIC is free, occupies it for ``size * per_byte_us`` (DMA
  serialization), then arrives ``inter_latency_us`` later.
* **Intra-node** (user process to the server on its own node): delivered
  through a shared-memory queue after ``intra_latency_us``; no NIC.

CPU overheads are charged to the party that incurs them: senders pay
``o_send_us`` (inter) or ``shm_access_us`` (intra) inside the :meth:`send`
helper; mailbox receivers pay ``o_recv_us`` when they dequeue.  Replies
delivered to a bare event (:meth:`post_reply`) fold the receiver overhead
into the delivery delay, since the requester is blocked waiting for exactly
that event.

Fault injection and reliability.  With ``params.faults`` set, every
physical transmission passes through a seeded
:class:`~repro.net.faults.FaultInjector` (drops, duplicates, delay spikes,
partitions, process pauses), and — when the plan asks for it — the
:class:`~repro.net.reliable.ReliableDelivery` layer restores exactly-once,
in-order delivery over the lossy links with ACKs, retransmissions, and a
receiver-side resequencer.  With ``params.faults`` left ``None`` (the
default) neither subsystem is imported or constructed and the fabric is
byte-identical to a fault-free build.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..sim.core import PRIORITY_NORMAL, Call, Environment, Event, _bad_delay
from ..sim.primitives import FilterStore, Store
from .message import Endpoint, Envelope
from .params import MSG_HEADER_BYTES, SMALL_MSG_BYTES, NetworkParams
from .topology import Topology

if TYPE_CHECKING:
    from .faults import FaultInjector
    from .reliable import ReliableDelivery

__all__ = ["Fabric", "FabricStats"]


@dataclass
class FabricStats:
    """Aggregate traffic counters.

    ``messages``/``bytes``/``by_payload`` cover *logical* messages — posts
    and replies alike, counted once regardless of how many physical
    transmission attempts the reliable layer needed.  The reliability
    counters (``retransmits``, ``timeouts``, ``dup_suppressed``, ``acks``)
    measure the transport's extra work; they stay zero on a fault-free
    fabric.
    """

    messages: int = 0
    bytes: int = 0
    inter_node: int = 0
    intra_node: int = 0
    replies: int = 0
    by_payload: Dict[str, int] = field(default_factory=dict)
    #: Reliable layer: retransmission timer expiries (includes the final,
    #: budget-exhausted one).
    timeouts: int = 0
    #: Reliable layer: frames re-sent after an unacknowledged timeout.
    retransmits: int = 0
    #: Duplicate deliveries suppressed (receiver dedup, resequencer, or an
    #: already-triggered reply event).
    dup_suppressed: int = 0
    #: Acknowledgement frames sent by receivers.
    acks: int = 0
    #: Reliable layer: channels whose retry budget ran out — the peer was
    #: declared dead and the channel's backlog discarded (crash-stop
    #: suspicion; consumed by the membership failure detector).
    links_declared_dead: int = 0
    #: Messages refused because their source or destination endpoint
    #: belongs to a crashed process/server (the mailbox has gone dark).
    dropped_dead: int = 0
    #: Deliveries swallowed by a silently-crashed endpoint (dead NIC):
    #: dropped at arrival without an ACK, so the sender keeps retrying.
    blackholed: int = 0
    #: Reliable layer: frames whose retry budget exhausted during a
    #: transient fault window (partition / process pause) and were parked
    #: until the window closed instead of declaring the peer dead.
    retry_suspended: int = 0
    #: Adaptive retry: round-trip-time samples fed to the per-channel
    #: Jacobson estimator (first-attempt ACKs only, per Karn's rule).
    rtt_samples: int = 0

    def record(self, size_bytes: int, intra_node: bool, payload_kind: str) -> None:
        """Count one logical message, post or reply alike."""
        self.messages += 1
        self.bytes += size_bytes
        if intra_node:
            self.intra_node += 1
        else:
            self.inter_node += 1
        self.by_payload[payload_kind] = self.by_payload.get(payload_kind, 0) + 1


class Fabric:
    """Delivers messages between registered endpoints with modeled timing."""

    def __init__(self, env: Environment, topology: Topology, params: NetworkParams):
        self.env = env
        self.topology = topology
        self.params = params
        self._mailboxes: Dict[Endpoint, Any] = {}
        self._nic_free = [0.0] * topology.nnodes
        #: Hierarchical topology (repro.topo): per-level latency/per-byte
        #: tables resolved once against the base params.  ``None`` (flat
        #: model) keeps transmit() on the exact pre-hierarchy arithmetic.
        if params.hierarchy is not None:
            self._hier_caps = params.hierarchy.caps
            self._hier_lat, self._hier_pb = params.hierarchy.resolve(
                params.inter_latency_us, params.per_byte_us
            )
        else:
            self._hier_caps = None
        self._seq = 0
        # Hot-path alias of the topology's rank->node table (post/send
        # resolve nodes once per message; a list index beats a method call).
        self._rank_node = topology._node_of
        self.faults: Optional[FaultInjector] = None
        self.reliable: Optional[ReliableDelivery] = None
        if params.faults is not None:  # the fault stack loads only here
            from .faults import FaultInjector
            from .reliable import ReliableDelivery

            self.faults = FaultInjector(params.faults, params.seed)
            if params.faults.reliable:
                self.reliable = ReliableDelivery(self)
        self.stats = FabricStats()
        #: Endpoints of crashed processes/servers: transmissions from and
        #: to them are silently refused.  Empty unless the fault plan
        #: schedules ProcessCrash events, so the fast path is one falsy
        #: check.
        self._dead_endpoints: set = set()
        #: Endpoints that crashed *silently* (a dead NIC co-processor):
        #: posts to them are still accepted — the reliable layer must keep
        #: retransmitting until its retry budget exhausts and raises a
        #: membership suspicion — but every delivery is dropped unACKed.
        self._blackhole_endpoints: set = set()
        #: Membership failure detector, attached by the runtime when the
        #: fault plan schedules crashes; every accepted post refreshes the
        #: sender's liveness (heartbeat piggybacking).
        self._membership = None
        #: Per-node NIC co-processors (node -> engine), attached by
        #: :func:`repro.nic.engine.ensure_engines` at the first NIC barrier.
        self._nic_engines = None
        #: RMCheck per-stream ordinals: message identity that is stable
        #: across schedule reorderings (a global counter would shift with
        #: the interleaving).  Only touched when a scheduler strategy is
        #: installed.
        self._mc_ordinals: Dict[Any, int] = {}
        #: Arrival handlers of raw delivery rows (a Call row's callbacks),
        #: built once.
        self._land_cbs = (self._landed,)
        self._reply_cbs = (self._reply_landed,)

    def _mc_ordinal(self, ident: Any) -> int:
        n = self._mc_ordinals.get(ident, 0)
        self._mc_ordinals[ident] = n + 1
        return n

    # -- crash-stop support ----------------------------------------------------

    def attach_membership(self, membership) -> None:
        self._membership = membership

    @property
    def nic_engines(self):
        """node -> NIC engine, or ``None`` before the first NIC barrier."""
        return self._nic_engines

    def attach_nic_engines(self, engines) -> None:
        self._nic_engines = engines

    def mark_dead(self, endpoint: Endpoint) -> None:
        """Refuse all future traffic from/to ``endpoint``.

        Frames the reliable layer still holds for the endpoint are
        abandoned so retransmission timers stop re-arming.
        """
        self._dead_endpoints.add(endpoint)
        if self.reliable is not None:
            self.reliable.abandon(endpoint)

    def blackhole(self, endpoint: Endpoint) -> None:
        """Make ``endpoint`` a silent sink (crashed NIC co-processor).

        Unlike :meth:`mark_dead`, senders are *not* told: their frames are
        accepted and dropped at arrival without acknowledgement, so the
        reliable layer's retry exhaustion — the only way peers can detect
        a silent device — still fires and feeds the failure detector.
        """
        self._blackhole_endpoints.add(endpoint)

    def endpoint_dead(self, endpoint: Endpoint) -> bool:
        return (
            endpoint in self._dead_endpoints
            or endpoint in self._blackhole_endpoints
        )

    # -- endpoint registry ---------------------------------------------------

    def register(self, endpoint: Endpoint, mailbox: Any) -> None:
        """Register a Store/FilterStore to receive messages for ``endpoint``."""
        if endpoint in self._mailboxes:
            raise ValueError(f"endpoint {endpoint} already registered")
        if not isinstance(mailbox, (Store, FilterStore)):
            raise TypeError(f"mailbox must be a Store or FilterStore, got {mailbox!r}")
        self._mailboxes[endpoint] = mailbox

    def mailbox(self, endpoint: Endpoint) -> Any:
        try:
            return self._mailboxes[endpoint]
        except KeyError:
            raise KeyError(f"no mailbox registered for endpoint {endpoint}") from None

    def _dst_node(self, endpoint: Endpoint) -> int:
        kind, index = endpoint
        if kind == "srv":
            return index
        if kind == "mp":
            return self._rank_node[index]
        if kind == "nic":
            return index
        raise ValueError(f"unknown endpoint kind {kind!r}")

    # -- the wire ------------------------------------------------------------

    def transmit(
        self,
        src_node: int,
        dst_node: int,
        size_bytes: int,
        label: Optional[tuple],
        callbacks: tuple,
        a: Any,
        b: Any = None,
        fault_dst: Optional[Endpoint] = None,
        faulted: bool = True,
        latency_us: Optional[float] = None,
        extra_us: float = 0.0,
    ) -> List[Call]:
        """Put one physical copy on the wire; the only place that happens.

        Prices the attempt — intra-node: the shared-memory latency;
        inter-node: wait for the source NIC, occupy it for the
        serialization time, then the wire latency (``latency_us``
        overrides it for NIC-to-NIC frames, which ride a dedicated flat
        fabric; otherwise a configured hierarchy prices the node pair's
        crossing level, see :mod:`repro.topo.hierarchy`) — adds
        ``extra_us`` (receiver CPU folded into a reply), offers it to the
        fault plan iff ``faulted`` (``fault_dst`` names the endpoint
        whose pause windows apply), and schedules one
        :class:`~repro.sim.core.Call` row per surviving copy: the arrival
        ``callbacks`` with ``a`` and ``b`` on the row, ``.delay`` its
        offset from now.  Returns those rows (a caller that gives each
        copy its own argument swaps it in).  ``label`` is the RMCheck
        transition ``(kind, dst_key, uid)``, or ``None`` outside model
        checking; with a fault plan ``uid`` gains the copy index.
        """
        p = self.params
        env = self.env
        now = env._now
        if src_node == dst_node:
            delay = p.intra_latency_us + extra_us
        else:
            depart = self._nic_free[src_node]
            if depart < now:
                depart = now
            if self._hier_caps is not None and latency_us is None:
                level = len(self._hier_caps) - 1
                for i, cap in enumerate(self._hier_caps):
                    if src_node // cap == dst_node // cap:
                        level = i
                        break
                per_byte = self._hier_pb[level]
                latency = self._hier_lat[level]
            else:
                per_byte = p.per_byte_us
                latency = p.inter_latency_us if latency_us is None else latency_us
            xfer = size_bytes * per_byte
            self._nic_free[src_node] = depart + xfer
            delay = (depart - now) + xfer + latency
            delay += extra_us
        faults = self.faults
        if faults is None or not faulted:
            offsets = (delay,)
        else:
            offsets = faults.delivery_offsets(
                src_node, dst_node, fault_dst, now, delay, src_node == dst_node
            )
        rows = []
        queue = env._queue
        for i, offset in enumerate(offsets):
            # env.call(offset, callbacks, a, b), inlined: one row per copy.
            if not offset >= 0:
                raise _bad_delay(offset)
            row = Call()
            row.callbacks = callbacks
            row.delay = offset
            row.a = a
            row.b = b
            row._mc_label = (
                label if label is None or faults is None
                else (label[0], label[1], label[2] + (i,))
            )
            seq = env._seq
            env._seq = seq + 1
            _heappush(queue, (now + offset, PRIORITY_NORMAL, seq, row))
            rows.append(row)
        return rows

    def wire_latency_override(self, src_rank: Any, dst: Endpoint) -> Optional[float]:
        """Reduced wire latency for NIC-to-NIC frames, else ``None``.

        NIC engines stamp their posts with a ``("nic", node)`` source, so
        a frame both originating and terminating on a NIC is identified
        without consulting the topology.
        """
        if dst[0] == "nic" and isinstance(src_rank, tuple):
            return self.params.nic_wire_latency_us
        return None

    # -- sending -------------------------------------------------------------

    def post(
        self,
        src_rank: int,
        dst: Endpoint,
        payload: Any,
        payload_bytes: int = SMALL_MSG_BYTES,
        src_node: Optional[int] = None,
    ) -> Envelope:
        """Hand a message to the transport *without* charging sender CPU.

        Returns the in-flight :class:`Envelope`.  Use :meth:`send` from
        process code; ``post`` exists for callers that account their own CPU
        time (e.g. the server thread batching a grant after its dispatch
        cost).
        """
        if src_node is None:
            src_node = self._rank_node[src_rank]
        dst_node = self._dst_node(dst)
        size = payload_bytes + MSG_HEADER_BYTES
        env = self.env
        now = env._now
        intra_node = src_node == dst_node
        # Envelopes are built positionally: post() runs once per message.
        if self._dead_endpoints and (
            dst in self._dead_endpoints or ("mp", src_rank) in self._dead_endpoints
        ):
            self.stats.dropped_dead += 1
            return Envelope(src_rank, dst, payload, size, now, now, -1, intra_node)
        # Refuse before anything is counted: an unknown endpoint is the
        # caller's bug, not traffic.
        mailbox = self._mailboxes.get(dst)
        if mailbox is None:
            raise KeyError(f"no mailbox registered for endpoint {dst}")
        if self._membership is not None:
            self._membership.heard(src_rank, now)
        seq = self._seq
        self._seq = seq + 1
        envelope = Envelope(src_rank, dst, payload, size, now, now, seq, intra_node)
        self.stats.record(size, intra_node, type(payload).__name__)
        if self.reliable is not None and not intra_node:
            self.reliable.send_envelope(envelope, src_node, dst_node)
            return envelope
        label = None
        if env._mc_strategy is not None:
            # RMCheck identity: (sender, per-sender-stream ordinal) names
            # this message identically in every interleaving.
            label = ("msg", dst, (src_rank, self._mc_ordinal(("msg", src_rank, dst))))
        rows = self.transmit(
            src_node, dst_node, size, label, self._land_cbs, mailbox, envelope,
            dst, True, self.wire_latency_override(src_rank, dst),
        )
        for row in rows[1:]:
            # The first copy is the envelope returned; a network duplicate
            # is its own object with its own arrival time.
            row.b = replace(envelope)
        return envelope

    def _landed(self, row: Call) -> None:
        """A raw delivery row pops: ``row.a`` is the mailbox, ``row.b`` the
        envelope."""
        self.land(row.a, row.b)

    def land(self, mailbox: Any, envelope: Envelope) -> None:
        """Arrival at a mailbox, stamped now — unless a dead NIC eats the
        frame."""
        if self._blackhole_endpoints and self.swallows(envelope.dst):
            return
        envelope.deliver_at = self.env._now
        mailbox.put(envelope)

    def swallows(self, endpoint: Endpoint) -> bool:
        """Is ``endpoint`` a silent sink?  Counts the delivery it ate."""
        if endpoint in self._blackhole_endpoints:
            self.stats.blackholed += 1
            return True
        return False

    def send(
        self,
        src_rank: int,
        dst: Endpoint,
        payload: Any,
        payload_bytes: int = SMALL_MSG_BYTES,
    ):
        """Sub-generator: charge sender CPU overhead, then post.

        Usage: ``env_msg = yield from fabric.send(rank, dst, payload)``.
        Returns the :class:`Envelope`.
        """
        src_node = self._rank_node[src_rank]
        dst_node = self._dst_node(dst)
        p = self.params
        overhead = p.shm_access_us if src_node == dst_node else p.o_send_us
        if overhead > 0.0:
            yield overhead
        return self.post(src_rank, dst, payload, payload_bytes, src_node=src_node)

    def post_reply(
        self,
        src_node: int,
        dst_rank: int,
        reply_event: Event,
        value: Any = None,
        payload_bytes: int = SMALL_MSG_BYTES,
    ) -> None:
        """Deliver a response to a blocked requester.

        The requester supplied ``reply_event`` in its request and is blocked
        on it; delivery succeeds the event after the path delay plus the
        requester's receive overhead.  The caller (normally the server) must
        charge its own send CPU before calling.
        """
        p = self.params
        dst_node = self._rank_node[dst_rank]
        size = payload_bytes + MSG_HEADER_BYTES
        intra_node = src_node == dst_node
        if self._dead_endpoints and (
            ("srv", src_node) in self._dead_endpoints
            or ("mp", dst_rank) in self._dead_endpoints
        ):
            self.stats.dropped_dead += 1
            return
        self.stats.replies += 1
        self.stats.record(size, intra_node, "Reply")
        if self.reliable is not None and not intra_node:
            self.reliable.send_reply(
                src_node, dst_node, dst_rank, reply_event, value, size
            )
            return
        label = None
        if self.env._mc_strategy is not None:
            # RMCheck transition label: reply delivery to the requester.
            ordinal = self._mc_ordinal(("rep", src_node, dst_rank))
            label = ("rep", ("mp", dst_rank), (src_node, ordinal))
        # No endpoint's pause windows hold a reply back; the link faults
        # apply.  The blocked requester's receive overhead folds into the
        # delay.
        extra_us = p.shm_access_us if intra_node else p.o_recv_us
        self.transmit(
            src_node, dst_node, size, label, self._reply_cbs, reply_event, value,
            None, not intra_node, None, extra_us,
        )

    def _reply_landed(self, row: Call) -> None:
        """A raw reply row pops: ``row.a`` is the reply event, ``row.b`` its
        value."""
        self.land_reply(row.a, row.b)

    def land_reply(self, reply_event: Event, value: Any) -> None:
        """Arrival of a reply: the event triggers once, later copies
        (network duplicates, retransmissions) are suppressed."""
        if reply_event.triggered:
            self.stats.dup_suppressed += 1
        else:
            reply_event.succeed(value)

    # -- introspection ---------------------------------------------------------

