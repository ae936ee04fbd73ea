"""Reliable delivery over a lossy fabric: ACK / retransmit / resequence.

GM gives ARMCI reliable, in-order delivery for free (paper §3.1.1), and the
optimized synchronization operations lean on it: the server's FIFO request
processing stands in for completion tracking, and the ``op_done`` counters
of the combined barrier assume every issued operation arrives exactly once.
When the fabric injects faults (:mod:`repro.net.faults`), this module
restores those guarantees the way a GM-like transport would:

* **Sender side** — every logical message becomes a *frame* with a
  per-``(source, destination endpoint)`` sequence number.  A frame is
  retransmitted on an exponential-backoff timer (``retry_timeout_us``,
  doubled per attempt) until the receiver acknowledges it; after
  ``max_retries`` unanswered attempts the transport declares the peer
  dead: the channel's backlog is discarded, the event is counted in
  ``FabricStats.links_declared_dead``, and the suspicion is reported to
  the membership failure detector (:mod:`repro.runtime.membership`) when
  one is attached.  Unrelated survivor traffic keeps flowing — exhaustion
  no longer raises out of the simulation.

* **Receiver side** — duplicate frames (retransmissions whose original made
  it, or network-duplicated copies) are suppressed and re-acknowledged; a
  resequencer buffers out-of-order frames and releases them to the real
  mailbox in sequence order, restoring GM's per-pair FIFO property.

* **ACKs** — acknowledgements travel the reverse path and are themselves
  subject to link faults (a lost ACK causes a retransmission, which the
  receiver suppresses as a duplicate and re-acknowledges).

Server *responses* (:meth:`Fabric.post_reply`) complete a bare event rather
than feeding a mailbox, so they need no resequencing: reply frames are
retransmitted until acknowledged and deduplicated by the event's
single-trigger property.

Retry, timeout, and duplicate-suppression counters are surfaced through
:class:`repro.net.fabric.FabricStats`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..sim.core import Call, Event, SimulationError
from .message import Endpoint, Envelope
from .params import MEMBERSHIP_POLL_US, MSG_HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from .fabric import Fabric

__all__ = ["ReliableDelivery", "ReliabilityError", "ACK_BYTES"]

#: Wire size of an acknowledgement frame (header-only control message).
ACK_BYTES = MSG_HEADER_BYTES

#: Multiplicative backoff applied to the retry timeout on each successive
#: retransmission of a frame.
RETRY_BACKOFF = 2.0
#: Floor of the adaptive retransmission timeout (guards against a few
#: fast ACKs collapsing the RTO under the real tail latency).
RTO_MIN_US = 20.0
#: Cap of the adaptive timeout *before* the per-channel jitter (which adds
#: up to 10%); bounds how long a backed-off channel waits between probes
#: during a long outage.
RTO_MAX_US = 2000.0

#: Channel key: (logical source, destination endpoint).
ChannelKey = Tuple[Any, Endpoint]


class ReliabilityError(SimulationError):
    """Kept for API compatibility: retry exhaustion used to raise this.

    Since the crash-stop subsystem landed, exhaustion instead declares the
    peer dead (``FabricStats.links_declared_dead``) and keeps the
    simulation running; this class remains importable for callers that
    still reference it.
    """


class _Frame:
    """One logical message in flight, across all its transmission attempts."""

    __slots__ = (
        "key",
        "seq",
        "kind",
        "envelope",
        "event",
        "value",
        "size_bytes",
        "src_node",
        "dst_node",
        "dst",
        "attempts",
        "acked",
        "acks_sent",
        "sent_at",
    )

    def __init__(
        self,
        key: ChannelKey,
        seq: int,
        kind: str,
        size_bytes: int,
        src_node: int,
        dst_node: int,
        envelope: Optional[Envelope] = None,
        event: Optional[Event] = None,
        value: Any = None,
    ):
        #: The channel the frame travels on: its timers and arrivals find
        #: their channel from the frame alone.
        self.key = key
        self.seq = seq
        self.kind = kind  # "msg" (mailbox envelope) | "reply" (bare event)
        self.size_bytes = size_bytes
        self.src_node = src_node
        self.dst_node = dst_node
        #: Mailbox endpoint of a msg frame; a reply frame has none.
        self.dst: Optional[Endpoint] = envelope.dst if envelope is not None else None
        self.envelope = envelope
        self.event = event
        self.value = value
        self.attempts = 0
        self.acked = False
        self.acks_sent = 0
        self.sent_at = 0.0

    def __repr__(self) -> str:
        state = "acked" if self.acked else f"attempt {self.attempts}"
        return f"<Frame {self.kind} seq={self.seq} {state}>"


@dataclass
class _SendChannel:
    next_seq: int = 0
    unacked: Dict[int, _Frame] = field(default_factory=dict)
    #: Jacobson RTT estimator state (adaptive_retry only): smoothed RTT and
    #: its mean deviation, fed by first-attempt ACKs (Karn's rule).
    srtt: Optional[float] = None
    rttvar: float = 0.0
    #: Deterministic per-channel jitter factor on the RTO cap, in [0, 1).
    cap_jitter: Optional[float] = None


@dataclass
class _RecvChannel:
    #: Next in-order sequence number to release to the mailbox.
    expected: int = 0
    #: Out-of-order frames awaiting the gap fill (resequencer).
    buffer: Dict[int, Envelope] = field(default_factory=dict)


class ReliableDelivery:
    """Per-fabric reliable transport state (all channels, both directions)."""

    def __init__(self, fabric: "Fabric"):
        self.fabric = fabric
        self.env = fabric.env
        self.params = fabric.params
        self._send_channels: Dict[ChannelKey, _SendChannel] = {}
        self._recv_channels: Dict[ChannelKey, _RecvChannel] = {}
        #: Handlers of the layer's rows (a Call row's callbacks), built
        #: once: frame and ACK arrival (``row.a`` the frame), the retry
        #: timer (``row.b`` the attempt it was armed for) and the
        #: suspension timer.
        self._arrive_cbs = (self._arrive,)
        self._ack_cbs = (self._on_ack,)
        self._timer_cbs = (self._on_timer,)
        self._resume_cbs = (self._resume,)

    def __repr__(self) -> str:
        inflight = sum(len(ch.unacked) for ch in self._send_channels.values())
        return f"<ReliableDelivery channels={len(self._send_channels)} inflight={inflight}>"

    # -- sender entry points (called by Fabric) -------------------------------

    def send_envelope(self, envelope: Envelope, src_node: int, dst_node: int) -> None:
        """Ship a mailbox-bound envelope reliably and in order."""
        key: ChannelKey = (envelope.src_rank, envelope.dst)
        self._ship(key, "msg", envelope.size_bytes, src_node, dst_node, envelope)

    def send_reply(
        self,
        src_node: int,
        dst_node: int,
        dst_rank: int,
        reply_event: Event,
        value: Any,
        size_bytes: int,
    ) -> None:
        """Ship a server response reliably (at-least-once + event dedup)."""
        key: ChannelKey = (("reply", src_node), ("mp", dst_rank))
        self._ship(key, "reply", size_bytes, src_node, dst_node, None, reply_event, value)

    def _ship(self, key: ChannelKey, *frame_fields) -> None:
        """Number a new frame on its channel and start transmitting it."""
        channel = self._send_channels.setdefault(key, _SendChannel())
        frame = _Frame(key, channel.next_seq, *frame_fields)
        channel.next_seq += 1
        channel.unacked[frame.seq] = frame
        self._transmit(frame)

    # -- transmission / retransmission ----------------------------------------

    def _transmit(self, frame: _Frame) -> None:
        fabric = self.fabric
        frame.attempts += 1
        frame.sent_at = self.env.now
        label = None
        if self.env._mc_strategy is not None:
            # RMCheck transition label.  msg frames target their mailbox
            # endpoint; reply frames target the requester rank (key[1]).
            # Identity (channel, seq, attempt, copy) is stable across
            # schedule reorderings.
            key = frame.key
            label = ("frame", frame.dst or key[1], (key, frame.seq, frame.attempts))
        if frame.kind == "msg":
            # The mailbox endpoint's pause windows apply.
            latency = fabric.wire_latency_override(frame.envelope.src_rank, frame.dst)
            wire = (frame.dst, True, latency)
        else:
            # As in Fabric.post_reply: no endpoint's windows, the link
            # faults, and the blocked requester's receive overhead folded
            # into the delivery delay.
            wire = (None, True, None, self.params.o_recv_us)
        fabric.transmit(
            frame.src_node, frame.dst_node, frame.size_bytes, label,
            self._arrive_cbs, frame, None, *wire
        )
        self._arm_timer(frame)

    def _arm_timer(self, frame: _Frame) -> None:
        p = self.params
        if p.adaptive_retry:
            key = frame.key
            timeout = self._adaptive_rto(key, self._send_channels[key], frame.attempts)
        else:
            timeout = p.retry_timeout_us * (RETRY_BACKOFF ** (frame.attempts - 1))
        self.env.call(timeout, self._timer_cbs, frame, frame.attempts)

    def _adaptive_rto(self, key: ChannelKey, channel: _SendChannel, attempt: int) -> float:
        """Jacobson-style RTO: ``srtt + 4 * rttvar``, backed off and capped.

        Until the channel has an RTT sample the configured fixed timeout
        serves as the initial estimate.  The cap carries a deterministic
        per-channel jitter (up to +10%) so channels that exhausted their
        backoff against a partitioned peer do not re-probe in lockstep when
        the cut heals.
        """
        p = self.params
        if channel.srtt is None:
            base = p.retry_timeout_us
        else:
            base = channel.srtt + 4.0 * channel.rttvar
        base = max(base, RTO_MIN_US)
        timeout = base * (RETRY_BACKOFF ** (attempt - 1))
        if channel.cap_jitter is None:
            # String seeding: stable across runs and PYTHONHASHSEED values.
            channel.cap_jitter = random.Random(
                f"rto:{p.seed}:{key!r}"
            ).random()
        cap = RTO_MAX_US * (1.0 + 0.1 * channel.cap_jitter)
        return min(timeout, cap)

    def _on_timer(self, row: Call) -> None:
        """The retry timer of attempt ``row.b`` of frame ``row.a`` expired."""
        frame = row.a
        if frame.acked or frame.attempts != row.b:
            return
        stats = self.fabric.stats
        stats.timeouts += 1
        if frame.attempts > self.params.max_retries:
            hold_until = self._transient_hold(frame)
            if hold_until is not None:
                self._suspend(frame, hold_until)
                return
            self._declare_dead(frame)
            return
        stats.retransmits += 1
        self._transmit(frame)

    # -- transient suspension (partitions / pauses) ---------------------------

    def _transient_hold(self, frame: _Frame) -> Optional[float]:
        """When exhaustion is attributable to a transient fault, the time to
        resume retransmitting; ``None`` means the silence is unexplained
        (dead peer) and fail-stop declaration should proceed."""
        plan = self.params.faults
        if not plan.transient:
            return None
        now = self.env.now
        until = plan.partition_until(frame.src_node, frame.dst_node, now)
        endpoint = frame.key[1]
        if endpoint[0] == "mp":
            stall = plan.stall_until(endpoint[1], now)
            if stall is not None and (until is None or stall > until):
                until = stall
        if until is not None:
            return until
        # The window may have closed between the last (cut) transmission
        # and this timer firing: resume immediately with a fresh budget.
        if plan.partitioned(frame.src_node, frame.dst_node, frame.sent_at) or (
            endpoint[0] == "mp" and plan.stalled(endpoint[1], frame.sent_at)
        ):
            return now
        return None

    def _suspend(self, frame: _Frame, until: float) -> None:
        """Queue, do not fail: park the frame until the transient clears.

        The frame keeps its channel slot (in-order release at the receiver
        still works), its retry budget is refilled, and the peer is
        *suspected* — the membership detector decides whether the suspicion
        is partition-attributable (transient exclusion, rejoin on heal)
        rather than this layer declaring fail-stop death.
        """
        self.fabric.stats.retry_suspended += 1
        membership = self.fabric._membership
        if membership is not None:
            membership.suspect(frame.key[1], reason="retry suspended (transient fault)")
        resume_at = max(until - self.env.now, 0.0) + MEMBERSHIP_POLL_US
        frame.attempts = 0
        self.env.call(resume_at, self._resume_cbs, frame)

    def _resume(self, row: Call) -> None:
        """The suspension of frame ``row.a`` is over."""
        frame = row.a
        if frame.acked:  # delivered meanwhile, or abandon()ed with its peer
            return
        if frame.attempts != 0:
            return  # a racing path already restarted this frame
        self.fabric.stats.retransmits += 1
        self._transmit(frame)

    def _declare_dead(self, frame: _Frame) -> None:
        """Retry budget exhausted: give up on the peer instead of raising.

        The destination endpoint is marked dead, every frame still queued
        for it (on any channel) is discarded so no timer re-arms, and the
        suspicion is handed to the membership detector if one is attached.
        """
        endpoint = frame.key[1]
        self.fabric.stats.links_declared_dead += 1
        # mark_dead makes the fabric refuse follow-up posts at the source
        # and calls back into abandon() to drop the queued backlog.
        self.fabric.mark_dead(endpoint)
        membership = self.fabric._membership
        if membership is not None:
            membership.suspect(endpoint, reason="retry budget exhausted")

    def abandon(self, endpoint: Endpoint) -> None:
        """Discard all transport state destined for ``endpoint``."""
        for key, channel in self._send_channels.items():
            if key[1] != endpoint:
                continue
            for frame in channel.unacked.values():
                frame.acked = True  # disarms any pending retry / resume timer
            channel.unacked.clear()
        for key, channel in self._recv_channels.items():
            if key[1] == endpoint:
                channel.buffer.clear()

    def abandon_sender(self, source: Any) -> None:
        """Fail-stop a *sender*: its transport state dies with it.

        ``source`` is any channel source: a rank, a node's server replies
        ``("reply", node)`` or its NIC ``("nic", node)``.  Retry timers are
        environment callbacks, so without this a crashed sender's
        unacknowledged frames would keep retransmitting from beyond the
        grave and eventually land — ops the crash recovery already wrote
        off must stay un-applied, and a dead machine's server must not
        answer.  (Copies the fabric already has in flight still arrive:
        only retransmission state is destroyed.)
        """
        for key, channel in self._send_channels.items():
            if key[0] != source:
                continue
            for frame in channel.unacked.values():
                frame.acked = True
            channel.unacked.clear()

    # -- receiver side ---------------------------------------------------------

    def _arrive(self, row: Call) -> None:
        """A copy of frame ``row.a`` reached the receiver."""
        frame = row.a
        fabric = self.fabric
        if frame.kind == "msg":
            if fabric.swallows(frame.dst):
                # Silent device (crashed NIC): no ACK, so the sender's retry
                # budget runs out and suspicion reaches the membership
                # detector.
                return
            channel = self._recv_channels.setdefault(frame.key, _RecvChannel())
            if frame.seq < channel.expected or frame.seq in channel.buffer:
                fabric.stats.dup_suppressed += 1
            else:
                channel.buffer[frame.seq] = frame.envelope
                self._release_in_order(channel, frame.dst)
        else:
            fabric.land_reply(frame.event, frame.value)
        self._send_ack(frame)

    def _release_in_order(self, channel: _RecvChannel, dst: Endpoint) -> None:
        mailbox = self.fabric.mailbox(dst)
        while channel.expected in channel.buffer:
            envelope = channel.buffer.pop(channel.expected)
            channel.expected += 1
            self.fabric.land(mailbox, envelope)

    # -- acknowledgements ------------------------------------------------------

    def _send_ack(self, frame: _Frame) -> None:
        self.fabric.stats.acks += 1
        label = None
        if self.env._mc_strategy is not None:
            # ACKs for the same channel are mutually dependent (they race on
            # frame.acked / the retry timer), so their dst_key is the
            # channel itself rather than a mailbox endpoint.
            frame.acks_sent += 1
            label = ("ack", ("ack-ch", frame.key), (frame.seq, frame.acks_sent))
        self.fabric.transmit(
            frame.dst_node, frame.src_node, ACK_BYTES, label, self._ack_cbs, frame
        )

    def _on_ack(self, row: Call) -> None:
        """An ACK of frame ``row.a`` reached the sender."""
        frame = row.a
        if frame.acked:
            return  # duplicate ACK
        frame.acked = True
        channel = self._send_channels.get(frame.key)
        if channel is not None:
            channel.unacked.pop(frame.seq, None)
            if self.params.adaptive_retry and frame.attempts == 1:
                # Karn's rule: only un-retransmitted frames give unambiguous
                # RTT samples (an ACK after a retransmit could belong to
                # either copy).
                self._sample_rtt(channel, self.env.now - frame.sent_at)

    def _sample_rtt(self, channel: _SendChannel, rtt: float) -> None:
        if channel.srtt is None:
            channel.srtt = rtt
            channel.rttvar = rtt / 2.0
        else:
            # RFC 6298 gains: alpha = 1/8, beta = 1/4.
            channel.rttvar += 0.25 * (abs(channel.srtt - rtt) - channel.rttvar)
            channel.srtt += 0.125 * (rtt - channel.srtt)
        self.fabric.stats.rtt_samples += 1
