"""Network and host cost parameters.

All times are in microseconds of simulated time; all sizes in bytes.  The
parameter set is LogGP-flavored: a one-way wire latency, a per-byte cost
(NIC/DMA serialization), CPU send/receive overheads, plus the host-side
costs that dominate the paper's analysis — server request dispatch and the
cost of waking a server thread that sleeps in a blocking receive.

``myrinet2000()`` is calibrated to land the reproduction's figures near the
paper's 16-node Myrinet-2000 cluster (1 GHz dual-Pentium-III, 33 MHz/32-bit
PCI, GM); see DESIGN.md §5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

from .faults import FaultPlan
from ..topo.hierarchy import Hierarchy

__all__ = ["NetworkParams", "myrinet2000", "gige", "quadrics_like", "SMALL_MSG_BYTES", "MSG_HEADER_BYTES"]

#: Nominal size charged for small control messages (requests, grants, acks).
SMALL_MSG_BYTES = 64
#: Per-message header bytes added to every payload.
MSG_HEADER_BYTES = 32


@dataclass(frozen=True)
class NetworkParams:
    """Cost model for a cluster of SMP nodes.

    Attributes
    ----------
    inter_latency_us:
        One-way wire+NIC latency for a message between two nodes, excluding
        serialization (the per-byte term) and CPU overheads.
    per_byte_us:
        Serialization cost per byte on the sending NIC (1 / bandwidth).
    o_send_us:
        CPU overhead the sender pays per message (descriptor setup, GM send).
    o_recv_us:
        CPU overhead the receiver pays to dequeue a message.
    intra_latency_us:
        Delivery latency for messages between a user process and the server
        thread on the *same* node (shared-memory request queue).
    shm_access_us:
        Cost of one uncontended shared-memory read or write by a user
        process (cache-coherent load/store to the shared region).
    shm_atomic_us:
        Cost of one shared-memory atomic operation (fetch&add, swap, CAS)
        performed directly by a user process, including bus locking.
    poll_detect_us:
        Mean delay between a memory word being written and a process that is
        spin-polling on it observing the new value.
    server_proc_us:
        Server-thread CPU time to dispatch and execute one request, excluding
        data copying.
    server_wake_us:
        Extra cost paid when a request arrives while the server thread is
        asleep in a blocking receive (interrupt + scheduler wakeup).
    server_spin_us:
        Spin-then-block: after draining its queue the server busy-polls
        for this long before blocking; a request arriving within the
        window is handled without the wake-up cost (ARMCI servers did
        exactly this to trade CPU for latency).  0 = block immediately
        (the configuration the paper's analysis assumes).
    mem_copy_per_byte_us:
        Server-side memcpy cost per byte when completing a put/get/acc.
    server_fence_check_us:
        Extra server CPU to process a fence confirmation request: the
        server must verify/flush completion of every prior operation from
        that client before confirming (walks its per-client bookkeeping).
    server_lock_op_us:
        Extra server CPU per hybrid-lock request/unlock: ticket bookkeeping
        plus maintenance of the per-lock queue of waiting remote requesters
        (the server-side work the MCS lock eliminates).
    api_call_us:
        Client-library CPU overhead charged once per public ARMCI/lock API
        call (argument checking, address translation, descriptor setup in
        the 1 GHz Pentium-III era library stack).
    mp_call_us:
        Message-passing library (MPI) per-call CPU overhead, charged on
        each send and each receive — MPICH-GM's software stack was a
        significant part of barrier latency on this hardware.
    jitter_us:
        If > 0, each inter-node delivery gets a uniform extra delay in
        ``[0, jitter_us]``, which can reorder messages between a pair.  GM
        delivers in order, so this is 0 by default; tests use it for
        failure injection.  Richer misbehaviour (drops, duplicates, delay
        spikes, server stalls) lives in ``faults``, on its own RNG stream.
    send_credits:
        GM-style sender flow control: each (process, server) pair holds
        this many send tokens; a request consumes one and the server's
        completion returns it (paper §3.1.1: "put messages generate
        acknowledgement messages from the server for flow control").
        0 disables the limit (default — the paper's GM configuration
        relies on GM's own link-level flow control instead).
    seed:
        RNG seed for jitter (and, unless the fault plan carries its own
        seed, for the independent fault stream).
    faults:
        Optional :class:`repro.net.faults.FaultPlan`.  ``None`` (default)
        means a perfect network — the fabric takes the exact same code
        path as before the fault subsystem existed, so all fault-free
        results are byte-identical.  When set, the fabric injects the
        plan's drops/duplicates/delays/stalls and (if ``plan.reliable``)
        runs the ACK/retransmit layer of :mod:`repro.net.reliable`.
    retry_timeout_us:
        Reliable layer: time to wait for an acknowledgement before the
        first retransmission of a frame.
    retry_backoff:
        Reliable layer: multiplicative backoff applied to the retry
        timeout on each successive retransmission (>= 1).
    max_retries:
        Reliable layer and fence watchdog: attempts after which the
        transport gives up and raises (declaring the link/server dead)
        instead of retrying forever.
    adaptive_retry:
        Reliable layer: when True the retransmission timeout is estimated
        per channel from observed round-trip times (Jacobson-style EWMA of
        RTT and its variance, ``RTO = srtt + 4 * rttvar``), starting from
        ``retry_timeout_us`` until the first sample arrives and clamped to
        ``[adaptive_rto_min_us, adaptive_rto_max_us]`` with a deterministic
        per-channel jitter on the cap.  Off by default so existing fault
        configurations keep the fixed schedule byte-for-byte.
    adaptive_rto_min_us:
        Floor of the adaptive retransmission timeout (guards against a
        few fast ACKs collapsing the RTO under the real tail latency).
    adaptive_rto_max_us:
        Cap of the adaptive timeout *before* the per-channel jitter
        (which adds up to 10%); bounds how long a backed-off channel
        waits between probes during a long outage.
    watchdog_timeout_us:
        Protocol watchdogs (0 = disabled, the default): a fence waiting
        this long without a confirmation retransmits its request, and a
        barrier whose stage-2 ``op_done`` wait makes no progress for a
        full window degrades to the conservative AllFence path (see
        ``docs/fault_model.md``).
    heartbeat_us:
        Membership failure detector (active only when the fault plan
        schedules ``ProcessCrash`` events): interval at which each live
        rank refreshes its liveness with the detector.  Fabric traffic
        piggybacks the same refresh, so heartbeats only matter for idle
        processes.
    suspect_timeout_us:
        Silence threshold after which the detector declares a rank dead
        and bumps the membership epoch.  Must comfortably exceed
        ``heartbeat_us`` plus its jitter; larger values trade detection
        latency for immunity to slow paths.
    membership_check_us:
        Period of the detector's scan over last-heard timestamps.
    membership_poll_us:
        Poll granularity used by epoch-aware (crash-resilient) waits:
        collective receives and the barrier's stage-2 wait re-check the
        membership epoch at this interval so survivors notice a view
        change while blocked.  Must be positive.
    nic_proc_us:
        NIC co-processor (LANai-style) CPU time per protocol step of the
        offloaded barrier: folding one contribution vector, building one
        send descriptor, or dequeuing one NIC-to-NIC frame.  The embedded
        processor is slower per instruction than the host, but each step
        skips the MPI stack, kernel wake-ups, and PCI doorbell crossings
        the host path pays (see ``docs/model.md``).
    nic_doorbell_us:
        Host CPU cost of ringing the NIC doorbell: one programmed-I/O
        write across the PCI bus posting a pre-built descriptor.
    nic_dma_us:
        Fixed cost of one host<->NIC DMA transaction (descriptor fetch +
        PCI bus acquisition), charged on each doorbell payload, each
        ``op_done`` mirror update, and the final completion write-back.
    nic_dma_per_byte_us:
        Per-byte cost of host<->NIC DMA across the PCI bus.
    nic_wire_latency_us:
        One-way latency for a NIC-to-NIC frame of the offloaded barrier.
        Lower than ``inter_latency_us``: the host-to-host figure includes
        a PIO doorbell + PCI DMA crossing on each end, which frames that
        originate and terminate in NIC SRAM never make.  On Myrinet-2000
        the raw fabric contributes only a couple of microseconds of the
        6.5 us end-to-end host latency.
    nic_algorithm:
        Inter-NIC topology for the offloaded barrier: ``"exchange"``
        (pairwise recursive doubling over nodes, the default) or
        ``"tree"`` (a binary combining tree — fewer total frames, more
        serialized depth).
    nic_offload:
        When True the ``auto`` barrier algorithm also considers the
        NIC-offloaded path (``algorithm="nic"`` can always be requested
        explicitly).  Off by default so existing configurations are
        byte-identical.
    hierarchy:
        Optional :class:`repro.topo.hierarchy.Hierarchy` describing the
        multi-level network above the SMP nodes (switch/rack/cluster
        tiers).  ``None`` (default) is the flat model: every inter-node
        message costs ``inter_latency_us`` regardless of distance, the
        exact pre-hierarchy code path, so all flat results are
        byte-identical.  When set, the fabric derives each message's
        latency and per-byte cost from the sender/receiver nodes'
        crossing level (per-level values inherit the flat figures
        unless overridden), and the ``auto`` barrier algorithm widens
        its comparison to the topology-aware candidates.
    tree_radix:
        Fan-out of the ``kary`` combining-tree barrier (children per
        tree node).  Matching it to ``procs_per_node`` aligns the leaf
        tier of the tree with SMP nodes under block placement.
    """

    inter_latency_us: float = 6.5
    per_byte_us: float = 0.004
    o_send_us: float = 0.9
    o_recv_us: float = 0.5
    intra_latency_us: float = 0.4
    shm_access_us: float = 0.12
    shm_atomic_us: float = 0.3
    poll_detect_us: float = 0.2
    server_proc_us: float = 1.1
    server_wake_us: float = 18.0
    server_spin_us: float = 0.0
    mem_copy_per_byte_us: float = 0.0012
    server_fence_check_us: float = 9.0
    server_lock_op_us: float = 3.5
    api_call_us: float = 1.5
    mp_call_us: float = 3.5
    jitter_us: float = 0.0
    send_credits: int = 0
    seed: int = 12345
    faults: Optional[FaultPlan] = None
    retry_timeout_us: float = 60.0
    retry_backoff: float = 2.0
    max_retries: int = 12
    adaptive_retry: bool = False
    adaptive_rto_min_us: float = 20.0
    adaptive_rto_max_us: float = 2000.0
    watchdog_timeout_us: float = 0.0
    heartbeat_us: float = 25.0
    suspect_timeout_us: float = 120.0
    membership_check_us: float = 20.0
    membership_poll_us: float = 5.0
    nic_proc_us: float = 2.2
    nic_doorbell_us: float = 0.6
    nic_dma_us: float = 1.5
    nic_dma_per_byte_us: float = 0.008
    nic_wire_latency_us: float = 2.6
    nic_algorithm: str = "exchange"
    nic_offload: bool = False
    hierarchy: Optional[Hierarchy] = None
    tree_radix: int = 4

    def __post_init__(self) -> None:
        # ``not lo <= x < inf`` also refuses NaN, which ``x < lo`` lets through.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("float", float) and not 0 <= value < math.inf:
                raise ValueError(
                    f"{f.name} must be non-negative and finite, got {value}"
                )
        for field_name in ("send_credits", "max_retries", "tree_radix"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{field_name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{field_name} must be non-negative, got {value}")
        if self.tree_radix < 2:
            raise ValueError(
                f"tree_radix must be >= 2, got {self.tree_radix}"
            )
        if self.membership_poll_us <= 0.0:
            # Every epoch-aware wait sleeps this long between checks: zero
            # would spin forever at one simulated instant.
            raise ValueError(
                f"membership_poll_us must be > 0, got {self.membership_poll_us}"
            )
        if self.nic_algorithm not in ("exchange", "tree"):
            raise ValueError(
                f"nic_algorithm must be 'exchange' or 'tree', got "
                f"{self.nic_algorithm!r}"
            )
        if self.retry_backoff < 1.0:
            raise ValueError(
                f"retry_backoff must be >= 1, got {self.retry_backoff}"
            )
        if self.adaptive_rto_max_us < self.adaptive_rto_min_us:
            raise ValueError(
                f"adaptive_rto_max_us ({self.adaptive_rto_max_us}) must be >= "
                f"adaptive_rto_min_us ({self.adaptive_rto_min_us})"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan or None, got {self.faults!r}"
            )
        if self.hierarchy is not None and not isinstance(self.hierarchy, Hierarchy):
            raise TypeError(
                f"hierarchy must be a Hierarchy or None, got {self.hierarchy!r}"
            )

    def with_(self, **changes) -> "NetworkParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def xfer_time(self, size_bytes: int) -> float:
        """NIC serialization time for a message of ``size_bytes``."""
        return size_bytes * self.per_byte_us

    def one_way(self, size_bytes: int = SMALL_MSG_BYTES) -> float:
        """Approximate end-to-end one-way time for an inter-node message.

        This is the analytic handbook number (o_send + serialization +
        latency + o_recv); the fabric computes the exact figure including
        NIC queueing.
        """
        return (
            self.o_send_us
            + self.xfer_time(size_bytes + MSG_HEADER_BYTES)
            + self.inter_latency_us
            + self.o_recv_us
        )


def myrinet2000(**overrides) -> NetworkParams:
    """Myrinet-2000 / GM on 33 MHz 32-bit PCI, circa 2002 (paper testbed)."""
    return NetworkParams().with_(**overrides) if overrides else NetworkParams()


def gige(**overrides) -> NetworkParams:
    """TCP over gigabit Ethernet of the same era: higher latency, costly host."""
    base = NetworkParams(
        inter_latency_us=45.0,
        per_byte_us=0.009,
        o_send_us=8.0,
        o_recv_us=6.0,
        server_proc_us=2.5,
        server_wake_us=25.0,
    )
    return base.with_(**overrides) if overrides else base


def quadrics_like(**overrides) -> NetworkParams:
    """A lower-latency interconnect (QsNet-like), for sensitivity studies."""
    base = NetworkParams(
        inter_latency_us=2.5,
        per_byte_us=0.0031,
        o_send_us=0.5,
        o_recv_us=0.3,
        server_proc_us=0.9,
        server_wake_us=7.0,
    )
    return base.with_(**overrides) if overrides else base


def _preset(name: str, **overrides) -> NetworkParams:
    """Look up a preset by name (used by the CLI)."""
    presets = {
        "myrinet2000": myrinet2000,
        "gige": gige,
        "quadrics": quadrics_like,
    }
    try:
        return presets[name](**overrides)
    except KeyError:
        raise ValueError(
            f"unknown network preset {name!r}; choose from {sorted(presets)}"
        ) from None
