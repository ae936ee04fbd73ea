"""Deterministic fault injection for the message fabric.

The paper's protocols (the combined ``ARMCI_Barrier()``, the hybrid and MCS
locks) are correct because GM guarantees reliable, in-order delivery
(paper §3.1.1).  This module makes that assumption *falsifiable*: a
:class:`FaultPlan` describes how a network misbehaves — per-link drop
probability, duplication, delay spikes, reordering windows, and timed
server stall/crash windows — and a :class:`FaultInjector` applies the plan
to every physical transmission the fabric makes.

Design rules:

* **Disabled means absent.**  ``NetworkParams.faults`` defaults to ``None``;
  the fabric then never constructs an injector, draws no random numbers,
  and is byte-identical to a fault-free build.  Enabling faults must not
  perturb any other stochastic stream (delivery jitter keeps its own RNG).

* **Seeded and deterministic.**  All fault decisions come from one
  ``random.Random`` seeded from ``FaultPlan.seed`` (falling back to the
  network seed).  The same plan over the same workload produces the same
  drops, duplicates, and delays on every run.

* **The network lies; memory does not.**  Faults apply to inter-node
  transmissions (and, for stall/crash windows, to deliveries addressed to
  the stalled node's server).  The intra-node shared-memory queue stays
  reliable, as real SMP request queues are.

Recovery from injected faults is the job of :mod:`repro.net.reliable`
(ACK/retransmit/resequencing) and the protocol watchdogs in
:mod:`repro.armci.fence` / :mod:`repro.armci.barrier`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .message import Endpoint

__all__ = [
    "LinkFaults",
    "StallWindow",
    "ProcessCrash",
    "Partition",
    "ProcessStall",
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
]


@dataclass(frozen=True)
class LinkFaults:
    """Per-link misbehaviour probabilities (each transmission attempt).

    Attributes
    ----------
    drop_rate:
        Probability a transmission is silently lost.
    dup_rate:
        Probability a transmission is delivered twice (the ghost copy
        arrives after an extra uniform delay in ``[0, dup_lag_us]``).
    delay_rate / delay_spike_us:
        Probability of a delay spike, and the spike magnitude added to the
        nominal delivery time (models a congested switch port or a link
        retraining pause).
    reorder_rate / reorder_window_us:
        Probability of an extra uniform delay in ``[0, reorder_window_us]``,
        which reorders the message against its neighbours (a softer, more
        frequent perturbation than a full spike).
    dup_lag_us:
        Upper bound of the duplicate copy's extra lag.
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    delay_spike_us: float = 0.0
    reorder_rate: float = 0.0
    reorder_window_us: float = 0.0
    dup_lag_us: float = 5.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "dup_rate", "delay_rate", "reorder_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("delay_spike_us", "reorder_window_us", "dup_lag_us"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def active(self) -> bool:
        return (
            self.drop_rate > 0.0
            or self.dup_rate > 0.0
            or self.delay_rate > 0.0
            or self.reorder_rate > 0.0
        )


@dataclass(frozen=True)
class StallWindow:
    """A timed outage of one node's server.

    A message due to arrive at ``("srv", node)`` inside ``[start_us,
    end_us)`` is either *held* until the window closes (``mode="stall"``:
    the server thread is descheduled / wedged, then resumes with its
    backlog) or *dropped* (``mode="crash"``: the server restarts and loses
    everything that was in flight to it).
    """

    node: int
    start_us: float
    end_us: float
    mode: str = "stall"

    def __post_init__(self) -> None:
        if self.mode not in ("stall", "crash"):
            raise ValueError(f"mode must be 'stall' or 'crash', got {self.mode!r}")
        if self.start_us < 0.0 or self.end_us <= self.start_us:
            raise ValueError(
                f"need 0 <= start_us < end_us, got [{self.start_us}, {self.end_us})"
            )

    def covers(self, when: float) -> bool:
        return self.start_us <= when < self.end_us


@dataclass(frozen=True)
class ProcessCrash:
    """A permanent crash-stop failure injected at a point in time.

    Exactly one of ``rank`` / ``node`` / ``nic`` must be given:

    * ``rank``: the user process with that rank is killed at ``at_us`` —
      its in-flight generator processes (program, lock daemons, helpers)
      are cancelled, the fabric refuses its transmissions, and its
      mailbox goes dark.
    * ``node``: the node's server thread *and* every rank placed on the
      node are killed together (a machine crash rather than a process
      crash).
    * ``nic``: only the node's NIC co-processor dies — the server and the
      hosted ranks keep running, but the ``("nic", node)`` endpoint goes
      dark and any in-flight offloaded barrier on that NIC is abandoned.
      Peers detect the silent NIC through the reliable layer's retry
      exhaustion, which escalates to a machine-crash suspicion (fail-stop:
      a node whose NIC stopped acknowledging is declared dead).

    ``at_us`` must be strictly positive: the crash executor has to fire
    after the programs are spawned, and a kill at exactly 0 would race
    spawn order nondeterministically.

    Crashes are permanent: there is no recovery window.  Detection and
    recovery are the job of :mod:`repro.runtime.membership`.
    """

    at_us: float
    rank: Optional[int] = None
    node: Optional[int] = None
    nic: Optional[int] = None

    def __post_init__(self) -> None:
        given = [x for x in (self.rank, self.node, self.nic) if x is not None]
        if len(given) != 1:
            raise ValueError("exactly one of rank / node / nic must be set")
        if self.at_us <= 0.0:
            raise ValueError(f"at_us must be positive, got {self.at_us}")

    @property
    def target(self) -> Tuple[str, int]:
        """A hashable (kind, index) identity for normalization/dedup."""
        if self.rank is not None:
            return ("rank", self.rank)
        if self.node is not None:
            return ("node", self.node)
        return ("nic", self.nic)


class _TransientWindow:
    """The ``[from_us, until_us)`` window of a fault that heals."""

    def _check_window(self) -> None:
        if self.from_us < 0.0 or self.until_us <= self.from_us:
            raise ValueError(
                f"need 0 <= from_us < until_us, got [{self.from_us}, {self.until_us})"
            )

    def covers(self, when: float) -> bool:
        return self.from_us <= when < self.until_us


@dataclass(frozen=True)
class Partition(_TransientWindow):
    """A transient network partition: one side of a full bipartite cut.

    During ``[from_us, until_us)`` no inter-node transmission crosses
    between ``nodes`` and its complement — in either direction, requests
    and replies alike.  Traffic *within* each side is unaffected.  The cut
    heals at ``until_us``; from then on the reliable layer's retransmits
    get through and both sides reconcile (the job of
    :mod:`repro.runtime.membership`).

    Partition drops are deterministic — no RNG draw — so the same plan
    cuts exactly the same transmissions on every run, and enabling a
    partition does not perturb the probabilistic link-fault stream.
    """

    nodes: Tuple[int, ...]
    from_us: float
    until_us: float

    def __post_init__(self) -> None:
        normalized = tuple(sorted(set(int(n) for n in self.nodes)))
        if not normalized:
            raise ValueError("a partition needs at least one node on its side")
        if any(n < 0 for n in normalized):
            raise ValueError(f"partition nodes must be non-negative, got {self.nodes}")
        if normalized != self.nodes:
            object.__setattr__(self, "nodes", normalized)
        self._check_window()

    def separates(self, node_a: int, node_b: int, when: float) -> bool:
        """True when the cut is active and the two nodes sit on opposite sides."""
        return self.covers(when) and ((node_a in self.nodes) != (node_b in self.nodes))


@dataclass(frozen=True)
class ProcessStall(_TransientWindow):
    """A transient pause of one rank: descheduled, not killed.

    During ``[from_us, until_us)`` every delivery addressed to the rank's
    mailbox (``("mp", rank)``) is held and arrives when the window closes,
    intra-node traffic included — a swapped-out or GC-frozen process
    receives nothing while it is off the CPU.  Nothing is lost; the rank
    resumes with its backlog.  Peers experience the pause as silence
    (retransmits go unacknowledged) and may transiently exclude the rank;
    it rejoins on resume.
    """

    rank: int
    from_us: float
    until_us: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be non-negative, got {self.rank}")
        self._check_window()


@dataclass(frozen=True)
class FaultPlan:
    """A complete, immutable description of how the network misbehaves.

    Attributes
    ----------
    default:
        Fault rates applied to every inter-node link not overridden.
    links:
        Per-link overrides: ``(((src_node, dst_node), LinkFaults), ...)``.
    stalls:
        Timed server stall/crash windows.
    partitions:
        Transient network partitions (full bipartite cuts between node
        groups).  Require ``reliable=True``: healing relies on the
        retransmit layer redelivering what the cut swallowed.
    pauses:
        Transient process stalls (a rank pauses without dying).
    seed:
        Fault-stream RNG seed; ``None`` derives it from the network seed.
        Independent from the jitter stream either way.
    reliable:
        Whether the fabric should run the ACK/retransmit/resequencing layer
        (:mod:`repro.net.reliable`) on top of the faulty links.  Disable it
        to expose raw faults to the runtime (e.g. to exercise the server's
        idempotent dispatch directly).
    apply_to_replies:
        Whether server responses are subject to link faults too (they are
        on a real network; disable for experiments that only perturb the
        request direction).
    """

    default: LinkFaults = LinkFaults()
    links: Tuple[Tuple[Tuple[int, int], LinkFaults], ...] = ()
    stalls: Tuple[StallWindow, ...] = ()
    crashes: Tuple[ProcessCrash, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    pauses: Tuple[ProcessStall, ...] = ()
    seed: Optional[int] = None
    reliable: bool = True
    apply_to_replies: bool = True

    def __post_init__(self) -> None:
        for crash in self.crashes:
            if not isinstance(crash, ProcessCrash):
                raise TypeError(f"crashes must hold ProcessCrash, got {crash!r}")
        for part in self.partitions:
            if not isinstance(part, Partition):
                raise TypeError(f"partitions must hold Partition, got {part!r}")
        for pause in self.pauses:
            if not isinstance(pause, ProcessStall):
                raise TypeError(f"pauses must hold ProcessStall, got {pause!r}")
        if self.partitions and not self.reliable:
            raise ValueError(
                "partitions require reliable=True: healing redelivers cut "
                "traffic through the retransmit layer"
            )
        # Normalize transient windows chronologically for deterministic
        # iteration (heal executors fire in this order).
        normalized_parts = tuple(
            sorted(self.partitions, key=lambda p: (p.from_us, p.until_us, p.nodes))
        )
        if normalized_parts != self.partitions:
            object.__setattr__(self, "partitions", normalized_parts)
        normalized_pauses = tuple(
            sorted(self.pauses, key=lambda s: (s.from_us, s.until_us, s.rank))
        )
        if normalized_pauses != self.pauses:
            object.__setattr__(self, "pauses", normalized_pauses)
        # Normalize the schedule deterministically: chronological order,
        # and at most one entry per target (a process can only die once —
        # the earliest entry wins, later duplicates are dropped).  A node
        # crash and a crash of one of its ranks are *different* targets;
        # their overlap is resolved idempotently at kill time by
        # :mod:`repro.runtime.membership`.
        if self.crashes:
            earliest: Dict[Tuple[str, int], ProcessCrash] = {}
            for crash in self.crashes:
                kept = earliest.get(crash.target)
                if kept is None or crash.at_us < kept.at_us:
                    earliest[crash.target] = crash
            normalized = tuple(
                sorted(earliest.values(), key=lambda c: (c.at_us,) + c.target)
            )
            if normalized != self.crashes:
                object.__setattr__(self, "crashes", normalized)

    @classmethod
    def uniform(
        cls,
        drop_rate: float = 0.0,
        dup_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_spike_us: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_window_us: float = 0.0,
        stalls: Tuple[StallWindow, ...] = (),
        crashes: Tuple[ProcessCrash, ...] = (),
        partitions: Tuple[Partition, ...] = (),
        pauses: Tuple[ProcessStall, ...] = (),
        seed: Optional[int] = None,
        reliable: bool = True,
    ) -> "FaultPlan":
        """The common case: the same fault rates on every link."""
        return cls(
            default=LinkFaults(
                drop_rate=drop_rate,
                dup_rate=dup_rate,
                delay_rate=delay_rate,
                delay_spike_us=delay_spike_us,
                reorder_rate=reorder_rate,
                reorder_window_us=reorder_window_us,
            ),
            stalls=stalls,
            crashes=crashes,
            partitions=partitions,
            pauses=pauses,
            seed=seed,
            reliable=reliable,
        )

    @classmethod
    def scripted(
        cls,
        crashes: Iterable[Tuple[str, int, float]] = (),
        partitions: Iterable[Tuple[Iterable[int], float, float]] = (),
        stalls: Iterable[Tuple[int, float, float]] = (),
        **fields: Any,
    ) -> "FaultPlan":
        """A plan from a workload script's plain tuples: crashes
        ``(kind, target, at_us)`` with kind ``rank``/``node``/``nic``,
        partitions ``(nodes, from_us, until_us)`` and stalls
        ``(rank, from_us, until_us)``; ``fields`` sets the other fields."""
        return cls(
            crashes=tuple(
                ProcessCrash(at_us=at_us, **{kind: target})
                for kind, target, at_us in crashes
            ),
            partitions=tuple(
                Partition(nodes=tuple(nodes), from_us=f, until_us=u)
                for nodes, f, u in partitions
            ),
            pauses=tuple(
                ProcessStall(rank=r, from_us=f, until_us=u) for r, f, u in stalls
            ),
            **fields,
        )

    def link(self, src_node: int, dst_node: int) -> LinkFaults:
        for (src, dst), faults in self.links:
            if src == src_node and dst == dst_node:
                return faults
        return self.default

    # -- transient-fault queries (partitions and pauses) ---------------------

    @property
    def transient(self) -> bool:
        """Does the plan contain recoverable faults (partitions / pauses)?"""
        return bool(self.partitions or self.pauses)

    @property
    def reorders(self) -> bool:
        """Can a link fault reorder message arrival (any active link)?"""
        return self.default.active or any(f.active for _l, f in self.links)

    @property
    def transient_end_us(self) -> float:
        """When the last transient window closes (0.0 without any)."""
        ends = [p.until_us for p in self.partitions]
        ends += [s.until_us for s in self.pauses]
        return max(ends) if ends else 0.0

    def partitioned(self, node_a: int, node_b: int, when: float) -> bool:
        """Is the fabric cut between the two nodes at ``when``?"""
        return any(p.separates(node_a, node_b, when) for p in self.partitions)

    def partition_until(self, node_a: int, node_b: int, when: float) -> Optional[float]:
        """End of the last active cut separating the nodes, else ``None``."""
        until: Optional[float] = None
        for part in self.partitions:
            if part.separates(node_a, node_b, when):
                if until is None or part.until_us > until:
                    until = part.until_us
        return until

    def stalled(self, rank: int, when: float) -> bool:
        return any(s.rank == rank and s.covers(when) for s in self.pauses)

    def stall_until(self, rank: int, when: float) -> Optional[float]:
        """End of the last active pause of ``rank``, else ``None``."""
        until: Optional[float] = None
        for pause in self.pauses:
            if pause.rank == rank and pause.covers(when):
                if until is None or pause.until_us > until:
                    until = pause.until_us
        return until

    def components(self, nodes: Tuple[int, ...], when: float) -> List[Tuple[int, ...]]:
        """Connectivity components of ``nodes`` under the cuts active at ``when``.

        Each partition is a full bipartite cut, so two nodes communicate
        iff they fall on the same side of *every* active cut: group by the
        signature of side memberships.  Components are returned sorted by
        their smallest node (deterministic for view merges).
        """
        active = [p for p in self.partitions if p.covers(when)]
        if not active:
            return [tuple(sorted(nodes))] if nodes else []
        groups: Dict[Tuple[bool, ...], List[int]] = {}
        for node in nodes:
            signature = tuple(node in p.nodes for p in active)
            groups.setdefault(signature, []).append(node)
        return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0])


@dataclass
class FaultStats:
    """What the injector actually did (per fabric)."""

    dropped: int = 0
    duplicated: int = 0
    delay_spikes: int = 0
    reordered: int = 0
    stall_held: int = 0
    crash_dropped: int = 0
    partition_dropped: int = 0
    pause_held: int = 0

    @property
    def total(self) -> int:
        return (
            self.dropped
            + self.duplicated
            + self.delay_spikes
            + self.reordered
            + self.stall_held
            + self.crash_dropped
            + self.partition_dropped
            + self.pause_held
        )


class FaultInjector:
    """Applies a :class:`FaultPlan` to individual transmission attempts."""

    def __init__(self, plan: FaultPlan, fallback_seed: int):
        self.plan = plan
        seed = plan.seed if plan.seed is not None else fallback_seed
        # String seeding hashes via SHA-512: stable across processes and
        # independent of PYTHONHASHSEED, and distinct from the jitter
        # stream which seeds random.Random(seed) directly.
        self._rng = random.Random(f"faults:{seed}")
        self._links: Dict[Tuple[int, int], LinkFaults] = dict(plan.links)
        # The plan is frozen, so what an attempt consults is resolved here
        # once: each link's faults, or None where they draw nothing, and
        # whether any stall or pause window can hold a delivery back.
        self._active_links: Dict[Tuple[int, int], Optional[LinkFaults]] = {
            pair: faults if faults.active else None
            for pair, faults in self._links.items()
        }
        self._active_default = plan.default if plan.default.active else None
        self._stalls = bool(plan.stalls)
        self._pauses = bool(plan.pauses)
        self.stats = FaultStats()

    def __repr__(self) -> str:
        return f"<FaultInjector plan={self.plan!r} injected={self.stats.total}>"

    def link(self, src_node: int, dst_node: int) -> LinkFaults:
        return self._links.get((src_node, dst_node), self.plan.default)

    # -- the one entry point the fabric calls --------------------------------

    def delivery_offsets(
        self,
        src_node: int,
        dst_node: int,
        dst: Optional[Endpoint],
        now: float,
        base_delay: float,
        intra_node: bool = False,
    ) -> List[float]:
        """Delivery delays for one physical transmission attempt.

        Returns zero (dropped), one, or two (duplicated) delays relative to
        ``now``.  ``dst`` is the destination endpoint when the transmission
        targets a registered mailbox (stall windows key off server
        endpoints); pass ``None`` for transport-internal traffic (ACKs).
        """
        if intra_node:
            # The shared-memory queue is reliable; only an outage of the
            # server itself (or a pause of the destination rank) affects it.
            delays = [base_delay]
        elif self.plan.partitions and self.plan.partitioned(src_node, dst_node, now):
            # Deterministic cut: no RNG draw, so the probabilistic link
            # fault stream is unperturbed by partition windows.
            self.stats.partition_dropped += 1
            return []
        else:
            faults = self._active_links.get((src_node, dst_node), self._active_default)
            if faults is None:
                delays = [base_delay]
            else:
                delays = []
                rng = self._rng
                if faults.drop_rate > 0.0 and rng.random() < faults.drop_rate:
                    self.stats.dropped += 1
                else:
                    delay = base_delay
                    if faults.delay_rate > 0.0 and rng.random() < faults.delay_rate:
                        self.stats.delay_spikes += 1
                        delay += faults.delay_spike_us
                    if faults.reorder_rate > 0.0 and rng.random() < faults.reorder_rate:
                        self.stats.reordered += 1
                        delay += rng.uniform(0.0, faults.reorder_window_us)
                    delays.append(delay)
                    if faults.dup_rate > 0.0 and rng.random() < faults.dup_rate:
                        self.stats.duplicated += 1
                        delays.append(delay + rng.uniform(0.0, faults.dup_lag_us))
        if self._stalls:
            delays = self._apply_stalls(dst, now, delays)
        if self._pauses:
            delays = self._apply_pauses(dst, now, delays)
        return delays

    def _apply_stalls(
        self, dst: Optional[Endpoint], now: float, delays: List[float]
    ) -> List[float]:
        if dst is None or dst[0] != "srv":
            return delays
        node = dst[1]
        out: List[float] = []
        for delay in delays:
            window = self._window_hit(node, now + delay)
            if window is None:
                out.append(delay)
            elif window.mode == "crash":
                self.stats.crash_dropped += 1
            else:
                self.stats.stall_held += 1
                out.append(window.end_us - now)
        return out

    def _window_hit(self, node: int, when: float) -> Optional[StallWindow]:
        for window in self.plan.stalls:
            if window.node == node and window.covers(when):
                return window
        return None

    def _apply_pauses(
        self, dst: Optional[Endpoint], now: float, delays: List[float]
    ) -> List[float]:
        """Hold deliveries addressed to a paused rank until it resumes."""
        if dst is None or dst[0] != "mp":
            return delays
        rank = dst[1]
        out: List[float] = []
        for delay in delays:
            until = self.plan.stall_until(rank, now + delay)
            if until is None:
                out.append(delay)
            else:
                self.stats.pause_held += 1
                out.append(until - now)
        return out
