"""Crash-stop membership: failure detection, epoch views, lock recovery.

The paper's synchronization operations assume every participant stays up:
a barrier waits for all ranks' credits, a lock queue hands the grant to
whatever ticket comes next, a token algorithm forwards requests along
pointers that may name a dead process.  This module adds the machinery a
crash-stop failure model needs on top of the existing stack:

* **Failure detection.**  Each live rank refreshes a per-rank *last heard*
  timestamp — implicitly with every fabric transmission it makes
  (piggybacked, zero-cost) and explicitly through a seeded, jittered
  heartbeat process that covers idle ranks.  A detector process scans the
  timestamps every ``membership_check_us`` and declares a rank dead after
  ``suspect_timeout_us`` of silence.  The reliable transport short-cuts
  the timeout: exhausting a frame's retry budget reports the peer
  straight to :meth:`MembershipService.suspect`.

* **Epoch-numbered views.**  Every declaration bumps the membership
  *epoch* and records the survivor set.  Protocol code tags exchanges
  with the epoch they started under and re-derives partner schedules from
  the current view when the epoch moves (see
  :mod:`repro.mp.collectives` and :mod:`repro.armci.barrier`).

* **Lease-based lock recovery.**  Lock acquisitions are recorded as
  leases (holder, ticket, epoch).  When the holder — or any queued
  waiter — dies, a per-algorithm recovery coordinator revokes the lease
  and splices the queue: ticket/hybrid/server locks skip dead ticket
  numbers, LH/MCS repair successor pointers (ghost-releasing on behalf
  of the dead), Naimi/Trehel and Raymond regenerate the token at a
  deterministic survivor via injected ``view_change`` messages.

* **Write-off accounting.**  A dead rank may have issued ``op_init``
  credits whose operations never reached the target server.  At kill
  time the service snapshots the rank's ``op_init`` array; survivors'
  barrier waits subtract the still-owed portion (snapshot minus the
  per-pair applied count maintained by :meth:`note_apply`).

* **Partition tolerance (transient faults).**  When the plan schedules
  :class:`~repro.net.faults.Partition` or
  :class:`~repro.net.faults.ProcessStall` windows, failures become
  *recoverable*: a rank cut off from the strict majority of live nodes
  (or paused) is **excluded** — epoch bump, revoked leases, write-off
  snapshot — without being killed, and the minority side **freezes** its
  sync operations (:meth:`freeze_gate` queues; it never declares
  survivors).  Healing merges views deterministically in one epoch bump
  per window and resynchronizes each returning rank: its credit
  snapshot is retired (queued cross-cut writes land monotonically), and
  token locks regenerated during its absence replay a ``view_change`` so
  a stale token it still holds is dropped.  Epoch **fencing tokens**
  (one counter per lock, bumped at every lease revocation) let the lock
  layer and the NIC engine reject actions by stale holders on heal.

**Disabled means absent**: the service is only constructed when the fault
plan schedules :class:`~repro.net.faults.ProcessCrash` events or
transient windows.  Every hook in the fabric, server, locks, and
collectives is a single ``is None`` check, so fault-free runs are
byte-identical to a build without this module; with crashes but no
transient windows, every new code path hides behind one ``_transient``
flag and crash-stop behavior is unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..mp.vector import CountVector
from ..net.message import Endpoint
from ..sim.core import Process

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import ClusterRuntime

__all__ = ["MembershipService", "Lease"]

#: Actor label used for membership events in RMCSan traces.
MEMBERSHIP_ACTOR = "membership"


@dataclass
class Lease:
    """One lock acquisition recorded for crash recovery."""

    key: Tuple[str, str, int]  # (kind, name, home_rank)
    holder: int
    ticket: Optional[int]
    acquired_at: float
    epoch: int


class MembershipService:
    """Per-runtime failure detector, view manager, and recovery engine."""

    def __init__(self, runtime: "ClusterRuntime"):
        self.runtime = runtime
        self.env = runtime.env
        self.params = runtime.params
        self.topology = runtime.topology
        self.fabric = runtime.fabric
        self.monitor = getattr(runtime, "monitor", None)
        plan = self.params.faults
        self.plan = plan
        nprocs = self.topology.nprocs
        seed = plan.seed if plan.seed is not None else self.params.seed
        self._seed = seed

        #: Current membership epoch; bumped once per declared death.
        self.epoch = 0
        self._alive: Set[int] = set(range(nprocs))
        self._dead: Set[int] = set()
        #: Epoch -> survivor view (sorted tuple) at the time it started.
        self._views: Dict[int, Tuple[int, ...]] = {0: tuple(range(nprocs))}
        self._last_heard: Dict[int, float] = {r: 0.0 for r in range(nprocs)}
        #: Actual kill time / declaration time per rank (detection latency).
        self.crashed_at: Dict[int, float] = {}
        self.declared_at: Dict[int, float] = {}
        #: Nodes whose server was killed (machine crashes).
        self._killed_nodes: Set[int] = set()
        #: Nodes whose NIC co-processor was killed (NIC-only or machine).
        self._dead_nics: Set[int] = set()

        # Which ranks the plan will kill (node crashes expand to all hosted
        # ranks); heartbeats and the detector retire once every planned
        # death has been declared, so the event queue can drain.
        planned: Set[int] = set()
        for crash in plan.crashes:
            if crash.rank is not None:
                planned.add(crash.rank)
            elif crash.node is not None:
                planned.update(self.topology.ranks_on(crash.node))
            # NIC-only crashes kill no rank directly: the hosted ranks die
            # only if transport suspicion escalates the silent NIC to a
            # machine crash, so they are not *planned* deaths and must not
            # keep the heartbeat/detector loops alive waiting for them.
        self._planned_ranks = planned

        #: Process ownership: rank -> processes to cancel on its death.
        self._owned: Dict[int, List[Process]] = {}
        self._owner_of: Dict[Process, int] = {}

        #: Lock registry: (kind, name, home_rank) -> {"kind", "handles"}.
        self._locks: Dict[Tuple[str, str, int], Dict[str, Any]] = {}
        #: Active leases by lock key.
        self._leases: Dict[Tuple[str, str, int], Lease] = {}
        #: Revoked (dead) ticket numbers by lock cells (home_rank, base_addr).
        self._revoked_tickets: Dict[Tuple[int, int], Set[int]] = {}

        #: Per-(src, dst) count of remote write ops applied at the server.
        self._applied: Dict[Tuple[int, int], int] = {}
        #: Dead ranks' op_init arrays, snapshotted at kill time.
        self._op_init_snapshot: Dict[int, CountVector] = {}

        #: Completion ledger for crash-resilient collectives:
        #: instance key -> (value, epoch the instance completed under).
        self._ledger: Dict[Any, Tuple[Any, int]] = {}

        # -- transient-fault (partition / pause) state.  All of it stays
        # empty (and every consulting code path is gated on ``_transient``)
        # unless the plan schedules partition or pause windows, so
        # crash-only runs are byte-identical to the pre-partition build.
        self._transient = plan.transient
        #: Ranks transiently excluded from the view (alive, not dead).
        self._excluded: Set[int] = set()
        self._excluded_at: Dict[int, float] = {}
        self._excluded_epoch: Dict[int, int] = {}
        self.rejoined_at: Dict[int, float] = {}
        #: Per-lock fencing tokens, bumped at every lease revocation: a
        #: holder whose acquisition-time token no longer matches is stale.
        self._fence_tokens: Dict[Tuple[str, str, int], int] = {}
        #: Token-lock regenerations: key -> (epoch, view_change payload),
        #: replayed to a rejoining rank so its stale token is dropped.
        self._token_regen: Dict[Tuple[str, str, int], Tuple[int, Dict[str, Any]]] = {}
        #: Ranks mid-rejoin: readmitted to the view but whose state resync
        #: messages are not yet posted (the freeze gate holds them).
        self._resyncing: Set[int] = set()
        #: Tests patch this off to demonstrate the sanitizer catching an
        #: un-resynchronized rejoin (stale token survives the heal).
        self.resync_enabled = True
        #: Freeze bookkeeping: rank -> freeze start (active), plus logs.
        self._freeze_started: Dict[int, float] = {}
        self.freeze_log: List[Dict[str, Any]] = []
        self.heal_log: List[Dict[str, Any]] = []
        self.suspicions_discarded = 0
        #: Keep the heartbeat/detector loops alive through the last
        #: transient window plus one full detection cycle.
        self._loops_until = (
            plan.transient_end_us
            + self.params.suspect_timeout_us
            + self.params.membership_check_us
            if self._transient
            else 0.0
        )

        #: Recovery trail (chaosbench reporting + tests).
        self.recovery_log: List[Dict[str, Any]] = []
        self._subscribers: List[Any] = []
        self._installed = False

    def __repr__(self) -> str:
        return (
            f"<MembershipService epoch={self.epoch} "
            f"alive={len(self._alive)} dead={sorted(self._dead)}>"
        )

    # -- wiring ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap process creation and start executors/heartbeats/detector."""
        if self._installed:  # pragma: no cover - wired once by the runtime
            return
        self._installed = True
        env = self.env
        # Chain through the environment's factory hook (Environment uses
        # __slots__); an already-installed factory (e.g. the RMCSan
        # monitor's actor inheritance) keeps working underneath ours.
        base_factory = env._process_factory

        def process_with_ownership(generator, name=None):
            owner = self._owner_of.get(env.active_process)
            if base_factory is not None:
                proc = base_factory(generator, name=name)
            else:
                proc = Process(env, generator, name=name)
            if owner is not None and owner not in self._dead:
                self._owner_of[proc] = owner
                self._owned.setdefault(owner, []).append(proc)
            return proc

        env._process_factory = process_with_ownership
        for crash in self.plan.crashes:
            env.process(self._crash_executor(crash), name=f"crash@{crash.at_us}")
        if self._transient:
            for part in self.plan.partitions:
                env.process(
                    self._heal_executor(part), name=f"heal@{part.until_us}"
                )
            for pause in self.plan.pauses:
                env.process(
                    self._resume_executor(pause),
                    name=f"resume[{pause.rank}]@{pause.until_us}",
                )
        for rank in sorted(self._alive):
            proc = env.process(self._heartbeat_loop(rank), name=f"hb[{rank}]")
            self.adopt(proc, rank)
        env.process(self._detector_loop(), name="membership.detector")

    def adopt(self, proc: Process, rank: int) -> None:
        """Record that ``proc`` belongs to ``rank`` (killed with it)."""
        self._owner_of[proc] = rank
        self._owned.setdefault(rank, []).append(proc)

    # -- views ----------------------------------------------------------------

    @property
    def transient(self) -> bool:
        """Does the plan schedule recoverable faults (partitions / pauses)?"""
        return self._transient

    def is_alive(self, rank: int) -> bool:
        return rank in self._alive

    def alive_ranks(self) -> Tuple[int, ...]:
        """The current survivor view (sorted)."""
        return self._views[self.epoch]

    def view(self, epoch: int) -> Tuple[int, ...]:
        """The survivor view recorded when ``epoch`` began."""
        return self._views[epoch]

    def node_dead(self, node: int) -> bool:
        """True once a machine crash of ``node`` has been declared."""
        if node not in self._killed_nodes:
            return False
        return all(r in self._dead for r in self.topology.ranks_on(node))

    def dead_ranks(self) -> Tuple[int, ...]:
        return tuple(sorted(self._dead))

    def excluded_ranks(self) -> Tuple[int, ...]:
        """Ranks transiently excluded from the view (alive, not dead)."""
        return tuple(sorted(self._excluded))

    def in_view(self, rank: int) -> bool:
        """Is ``rank`` a member of the current view (alive and included)?"""
        return rank in self._alive and rank not in self._excluded

    def subscribe(self, callback) -> None:
        """``callback(epoch)`` fires after every view change."""
        self._subscribers.append(callback)

    # -- quorum (transient faults only) ----------------------------------------

    def _window_active(self, when: float) -> bool:
        return any(p.covers(when) for p in self.plan.partitions)

    def _live_nodes(self) -> Tuple[int, ...]:
        return tuple(
            n for n in range(self.topology.nnodes) if n not in self._killed_nodes
        )

    def _in_majority_component(self, node: int, when: float) -> bool:
        """Is ``node`` in a component holding a strict majority of live nodes?

        The quorum rule is a *strict* majority (``2 * |component| >
        |live nodes|``): an even split freezes both sides, which is the
        only safe answer — healing is scheduled, so freezing cannot
        deadlock, while letting both halves of a 2-2 split proceed is
        exactly the split-brain this subsystem exists to prevent.
        """
        live = self._live_nodes()
        for comp in self.plan.components(live, when):
            if node in comp:
                return 2 * len(comp) > len(live)
        return False

    def _majority_exists(self, when: float) -> bool:
        """Does *some* component hold a strict majority of live nodes?"""
        live = self._live_nodes()
        if not self._window_active(when):
            return True
        return any(
            2 * len(comp) > len(live) for comp in self.plan.components(live, when)
        )

    def quorum_ok(self, rank: int) -> bool:
        """May ``rank`` run sync operations right now (quorum side, not
        paused)?  Always true without transient windows."""
        if not self._transient:
            return True
        now = self.env.now
        if self.plan.stalled(rank, now):
            return False
        if not self._window_active(now):
            return True
        return self._in_majority_component(self.topology.node_of(rank), now)

    def _transient_attributable(self, rank: int, when: float) -> bool:
        """Is ``rank``'s silence explained by an active transient window
        (paused, or cut off from the majority component)?"""
        if not self._transient:
            return False
        if self.plan.stalled(rank, when):
            return True
        if not self._window_active(when):
            return False
        return not self._in_majority_component(self.topology.node_of(rank), when)

    # -- liveness inputs -------------------------------------------------------

    def note_traffic(self, src_rank: Any) -> None:
        """Piggybacked liveness: any accepted fabric post refreshes the rank.

        During a transient window the refresh is suppressed for ranks the
        majority cannot hear (paused, or on the minority side of a cut):
        their local sends do not reach the detector's side, so letting
        them refresh would blind the failure detector to the partition.
        """
        if src_rank in self._alive:
            if self._transient and self._refresh_suppressed(src_rank):
                return
            self._last_heard[src_rank] = self.env.now

    def heartbeat(self, rank: int, now: float) -> None:
        if rank in self._alive:
            if self._transient and self._refresh_suppressed(rank):
                return
            self._last_heard[rank] = now

    def _refresh_suppressed(self, rank: Any) -> bool:
        now = self.env.now
        plan = self.plan
        if plan.pauses and isinstance(rank, int) and plan.stalled(rank, now):
            return True
        if not plan.partitions or not self._window_active(now):
            return False
        if not isinstance(rank, int):
            return False  # NIC engines stamp tuple sources; no rank liveness
        return not self._in_majority_component(self.topology.node_of(rank), now)

    def suspect(self, endpoint: Endpoint, reason: str = "suspected") -> None:
        """Transport-level suspicion (retry budget exhausted on a peer).

        With transient windows in the plan, a suspicion needs
        *corroboration* before it escalates: the raiser may itself be the
        partitioned-away party.  A target the majority component can
        still hear is never declared on transport evidence alone while a
        cut is active (the suspicion is discarded); a target that is
        paused or cut off from the majority is transiently *excluded* —
        reversible, no kill — and only when no window explains the
        silence does the crash-stop declaration proceed as before.
        """
        kind, which = endpoint
        if self._transient:
            now = self.env.now
            if kind == "mp":
                targets: Tuple[int, ...] = (which,)
            else:
                targets = tuple(self.topology.ranks_on(which))
            for rank in targets:
                if rank not in self._alive or rank in self._excluded:
                    continue
                if self._transient_attributable(rank, now):
                    if self._majority_exists(now):
                        self._exclude_rank(rank, reason=reason)
                    else:
                        # Even split: no side has quorum, nobody may act.
                        self.suspicions_discarded += 1
                elif self._window_active(now):
                    # A cut is active and the target sits on the majority
                    # side: a quorum of peers still hears it, so the
                    # raiser is the partitioned one.  Discard.
                    self.suspicions_discarded += 1
                else:
                    if kind in ("srv", "nic"):
                        self._killed_nodes.add(which)
                        self._declare_dead(rank, reason=f"node {which}: {reason}")
                    else:
                        self._declare_dead(rank, reason=reason)
            return
        if kind == "mp":
            self._declare_dead(which, reason=reason)
        elif kind in ("srv", "nic"):
            # A server (or NIC co-processor) that stopped acknowledging is
            # a machine crash: the node's ranks go with it.
            self._killed_nodes.add(which)
            for rank in self.topology.ranks_on(which):
                self._declare_dead(rank, reason=f"node {which}: {reason}")

    # -- crash execution -------------------------------------------------------

    def _crash_executor(self, crash):
        yield self.env.timeout(crash.at_us)
        if crash.rank is not None:
            self._kill_rank(crash.rank)
        elif crash.node is not None:
            self._kill_node(crash.node)
        else:
            self._kill_nic(crash.nic)

    def _kill_rank(self, rank: int) -> None:
        """Fail-stop a user process: cancel generators, silence the fabric."""
        if rank in self.crashed_at:
            return
        self.crashed_at[rank] = self.env.now
        armci = self.runtime.armcis.get(rank)
        if armci is not None:
            self._op_init_snapshot[rank] = CountVector(armci.op_init)
        self.fabric.mark_dead(("mp", rank))
        if self.fabric.reliable is not None:
            # Fail-stop includes the rank's sender-side transport state:
            # no retransmissions from beyond the grave (frames already on
            # the wire may still land; write-off accounting is monotone).
            self.fabric.reliable.abandon_sender(rank)
        for proc in self._owned.get(rank, ()):
            if proc.is_alive and proc is not self.env.active_process:
                proc.kill()

    def _kill_node(self, node: int) -> None:
        """Machine crash: the server thread and every hosted rank die.

        Idempotent: a node crash scheduled after one of its ranks (or its
        NIC, or the whole node) already died simply kills whatever is
        still running — ``_kill_rank`` and ``_kill_nic`` each no-op on an
        already-dead target.
        """
        self._killed_nodes.add(node)
        server = self.runtime.servers.get(node)
        if server is not None and server._proc is not None and server._proc.is_alive:
            server._proc.kill()
        self.fabric.mark_dead(("srv", node))
        # The node's NIC dies with it: refuse frames addressed to it and
        # stop its co-processor so degraded NIC barriers terminate.
        self._kill_nic(node)
        for rank in self.topology.ranks_on(node):
            self._kill_rank(rank)

    def _kill_nic(self, node: int) -> None:
        """NIC-only crash: the co-processor dies, the host side survives.

        The ``("nic", node)`` endpoint is marked dead (frames from/to it
        are refused) and any in-flight offloaded-barrier epoch on the
        engine is abandoned.  The hosted ranks and the server stay up:
        detection is the reliable layer's job — peer NICs exhaust their
        retry budget against the silent endpoint and
        :meth:`suspect` escalates the node to a machine-crash declaration.
        Hosts that ring a doorbell on a dead local NIC degrade immediately
        to the resilient host exchange (see :mod:`repro.armci.barrier`).
        """
        if node in self._dead_nics:
            return
        self._dead_nics.add(node)
        if node in self._killed_nodes:
            # Machine crash: the whole node is declared dead, so peers must
            # stop retrying outright (mark_dead also abandons backlog).
            self.fabric.mark_dead(("nic", node))
        else:
            # NIC-only crash: the device goes *silent*.  Peers' frames are
            # swallowed unACKed so the reliable layer's retry exhaustion
            # escalates the silence into a machine-crash suspicion.
            self.fabric.blackhole(("nic", node))
        engines = getattr(self.fabric, "_nic_engines", None)
        if engines is not None and node in engines:
            engines[node].shutdown()
        if self.monitor is not None:
            self.monitor.emit(
                "nic_crashed", actor=MEMBERSHIP_ACTOR, node=node,
                at=self.env.now,
            )

    def nic_dead(self, node: int) -> bool:
        """True once ``node``'s NIC co-processor has been killed."""
        return node in self._dead_nics

    # -- detection -------------------------------------------------------------

    def _all_planned_declared(self) -> bool:
        return self._planned_ranks <= self._dead

    def _loops_done(self) -> bool:
        """May the heartbeat/detector loops retire?

        Crash-only runs retire once every planned death is declared (the
        original rule).  Transient runs additionally stay up through the
        last window plus one detection cycle, and while any rank is still
        excluded (its rejoin needs a live detector epoch).
        """
        if not self._all_planned_declared():
            return False
        if self._transient and (self.env.now < self._loops_until or self._excluded):
            return False
        return True

    def _heartbeat_loop(self, rank: int):
        rng = random.Random(f"membership:{self._seed}:{rank}")
        interval = self.params.heartbeat_us
        if interval <= 0.0:  # heartbeats disabled: rely on traffic + retries
            return
        while not self._loops_done():
            yield self.env.timeout(interval * (0.75 + 0.5 * rng.random()))
            if rank in self._dead:
                return
            self.heartbeat(rank, self.env.now)

    def _detector_loop(self):
        p = self.params
        check = p.membership_check_us if p.membership_check_us > 0.0 else p.heartbeat_us
        if check <= 0.0:  # pragma: no cover - degenerate configuration
            return
        while not self._loops_done():
            yield self.env.timeout(check)
            now = self.env.now
            for rank in sorted(self._alive):
                if self._transient and rank in self._excluded:
                    continue
                if now - self._last_heard[rank] > p.suspect_timeout_us:
                    if self._transient and self._transient_attributable(rank, now):
                        # Silence explained by an active window: transient
                        # exclusion (if a quorum exists to corroborate it),
                        # never a death declaration.
                        if self._majority_exists(now):
                            self._exclude_rank(rank, reason="heartbeat silence")
                        continue
                    self._declare_dead(rank, reason="heartbeat silence")

    # -- declaration + view change ---------------------------------------------

    def _declare_dead(self, rank: int, reason: str) -> None:
        if rank not in self._alive:
            return
        now = self.env.now
        if rank not in self.crashed_at:
            # Suspected without a scheduled kill (e.g. a fully partitioned
            # link): enforce fail-stop so the suspected rank cannot act on
            # a view that no longer contains it.
            self._kill_rank(rank)
        self._alive.discard(rank)
        self._dead.add(rank)
        # Death trumps transient exclusion: a rank that crashed while
        # partitioned away must not linger in the excluded set (it will
        # never rejoin, and the loops wait for exclusions to drain).
        if self._excluded:
            self._excluded.discard(rank)
            self._excluded_at.pop(rank, None)
            self._excluded_epoch.pop(rank, None)
        self.declared_at[rank] = now
        self.epoch += 1
        view = tuple(sorted(self._alive - self._excluded))
        self._views[self.epoch] = view
        if self.monitor is not None:
            node = self.topology.node_of(rank)
            self.monitor.emit(
                "proc_crashed",
                actor=MEMBERSHIP_ACTOR,
                rank=rank,
                node=node,
                node_crashed=node in self._killed_nodes,
                crashed_at=self.crashed_at[rank],
                declared_at=now,
                detect_latency_us=now - self.crashed_at[rank],
                reason=reason,
            )
            extra = (
                {"excluded": sorted(self._excluded)} if self._transient else {}
            )
            self.monitor.emit(
                "view_change",
                actor=MEMBERSHIP_ACTOR,
                epoch=self.epoch,
                alive=list(view),
                dead=sorted(self._dead),
                **extra,
            )
        # Revoke any lease the dead rank held.
        for key, lease in list(self._leases.items()):
            if lease.holder == rank:
                del self._leases[key]
                self._bump_fence(key)
                if self.monitor is not None:
                    self.monitor.emit(
                        "lease_revoked",
                        actor=MEMBERSHIP_ACTOR,
                        lock=f"{key[0]}:{key[1]}@{key[2]}",
                        rank=rank,
                        ticket=lease.ticket,
                        epoch=self.epoch,
                    )
        # Splice the dead rank out of every lock it participates in.
        for key in sorted(self._locks):
            if rank in self._locks[key]["handles"]:
                self.env.process(
                    self._recover_lock(key, rank),
                    name=f"recover:{key[0]}:{key[1]}:{rank}",
                )
        # Commit-or-abort for NIC barrier epochs, *before* hosts observe
        # the view change: a host woken by its subscriber callback must
        # already see its release fired if the epoch committed anywhere.
        self._resolve_nic_epochs()
        for callback in list(self._subscribers):
            callback(self.epoch)

    def _resolve_nic_epochs(self) -> None:
        """Finish NIC barrier epochs that committed on *some* engine.

        A crashed NIC can wedge peers in the inter-NIC stage-3 barrier
        after another engine already released its hosts.  Released hosts
        have moved on, so the wedged hosts must not degrade to the
        resilient host exchange (they would wait forever for the released
        ones).  Commitment on any engine implies every engine entered
        stage 3 — all remote operations drained — so completing the epoch
        for every live host is safe; with no commitment anywhere, all
        hosts degrade together and stay consistent.
        """
        engines = getattr(self.fabric, "_nic_engines", None)
        if not engines:
            return
        committed = set()
        for engine in engines.values():
            committed |= engine.committed
        for epoch in sorted(committed):
            for engine in engines.values():
                engine.force_release(epoch)

    # -- transient exclusion, heal, and rejoin -----------------------------------

    def _exclude_rank(self, rank: int, reason: str) -> None:
        """Reversibly remove a partition/stall casualty from the view.

        Unlike :meth:`_declare_dead` the rank is *not* killed: its
        processes keep running (on the minority side they freeze at their
        next sync operation), its memory survives, and it rejoins through
        :meth:`_rejoin_ranks` once the fault window closes.  Any lease it
        holds is revoked and fenced so the majority can regenerate the
        lock — the excluded ex-holder's own release is rejected by the
        fencing-token check when it eventually runs.
        """
        if rank not in self._alive or rank in self._excluded:
            return
        now = self.env.now
        self._excluded.add(rank)
        self._excluded_at[rank] = now
        # Snapshot issued-op counters exactly as the crash path does, so
        # majority-side barriers can write off credits the excluded rank's
        # frozen traffic will not deliver until heal.
        armci = self.runtime.armcis.get(rank)
        if armci is not None:
            self._op_init_snapshot[rank] = CountVector(armci.op_init)
        self.epoch += 1
        self._excluded_epoch[rank] = self.epoch
        view = tuple(sorted(self._alive - self._excluded))
        self._views[self.epoch] = view
        if self.monitor is not None:
            self.monitor.emit(
                "proc_excluded",
                actor=MEMBERSHIP_ACTOR,
                rank=rank,
                node=self.topology.node_of(rank),
                excluded_at=now,
                epoch=self.epoch,
                reason=reason,
            )
            self.monitor.emit(
                "view_change",
                actor=MEMBERSHIP_ACTOR,
                epoch=self.epoch,
                alive=list(view),
                dead=sorted(self._dead),
                excluded=sorted(self._excluded),
            )
        # Revoke + fence any lease the excluded rank holds and regenerate
        # the lock for the majority.  Token locks are message-based and
        # always recoverable; the shared-memory families need the lock's
        # home region on the majority side — when the home node is cut off
        # too, the lease stays put and majority requesters simply queue
        # until heal (safe: nobody can reach the lock words either way).
        for key, lease in list(self._leases.items()):
            if lease.holder != rank:
                continue
            kind = self._locks[key]["kind"] if key in self._locks else key[0]
            if kind not in ("naimi", "raymond"):
                home_node = self.topology.node_of(key[2])
                if not self._in_majority_component(home_node, now):
                    continue
            del self._leases[key]
            self._bump_fence(key)
            if self.monitor is not None:
                self.monitor.emit(
                    "lease_revoked",
                    actor=MEMBERSHIP_ACTOR,
                    lock=f"{key[0]}:{key[1]}@{key[2]}",
                    rank=rank,
                    ticket=lease.ticket,
                    epoch=self.epoch,
                    live=True,
                )
            self.env.process(
                self._recover_lock(key, rank, transient=True),
                name=f"recover:{key[0]}:{key[1]}:{rank}",
            )
        self._resolve_nic_epochs()
        for callback in list(self._subscribers):
            callback(self.epoch)

    def _heal_executor(self, part):
        """Runs at a partition's ``until_us``: reset silence clocks and
        rejoin every excluded rank that is back in a majority component."""
        yield self.env.timeout(part.until_us)
        now = self.env.now
        # The disruption is over; pre-heal silence must not be
        # misattributed to post-heal crash suspicion.
        for r in self._alive:
            self._last_heard[r] = now
        # Excluded ranks that crashed while away will never rejoin.
        for r in sorted(self._excluded):
            if r in self.crashed_at:
                self._declare_dead(r, reason="crashed while excluded")
        healing = [r for r in sorted(self._excluded) if self.quorum_ok(r)]
        if self.monitor is not None:
            self.monitor.emit(
                "partition_heal",
                actor=MEMBERSHIP_ACTOR,
                nodes=list(part.nodes),
                from_us=part.from_us,
                healed_at=now,
                rejoining=list(healing),
            )
        yield from self._rejoin_ranks(healing)
        self.heal_log.append(
            {
                "nodes": list(part.nodes),
                "from_us": part.from_us,
                "healed_at_us": now,
                "rejoined": list(healing),
                "epoch": self.epoch,
            }
        )

    def _resume_executor(self, pause):
        """Runs at a process stall's ``until_us``: the rank starts making
        progress again, so clear its silence clock and rejoin it."""
        yield self.env.timeout(pause.until_us)
        rank = pause.rank
        now = self.env.now
        if rank in self._alive:
            self._last_heard[rank] = now
        if rank not in self._excluded:
            return
        if rank in self.crashed_at:
            self._declare_dead(rank, reason="crashed while excluded")
            return
        yield from self._rejoin_ranks([rank])

    def _rejoin_ranks(self, ranks):
        """Readmit excluded ranks under one new epoch and resynchronize
        their state from the majority before the freeze gate releases them.

        Resynchronization covers (a) the issued-op snapshot taken at
        exclusion — popped here, so credit accounting re-baselines on the
        rank's live counters (queued cross-cut traffic delivered after
        heal bumps ``op_done`` and the applied counts monotonically) — and
        (b) token locks regenerated while the rank was away: the recorded
        ``view_change`` is replayed into the rank's own mailbox, intra-node
        FIFO ahead of any acquire it could issue once unfrozen, so a stale
        token can never grant before the daemon learns the new epoch floor.
        """
        eligible = [
            r
            for r in sorted(set(ranks))
            if r in self._excluded
            and r in self._alive
            and r not in self.crashed_at
            and self.quorum_ok(r)
        ]
        if not eligible:
            return
        now = self.env.now
        self._resyncing.update(eligible)
        details = []
        for r in eligible:
            self._excluded.discard(r)
            excluded_at = self._excluded_at.pop(r, now)
            exc_epoch = self._excluded_epoch.pop(r, 0)
            self._op_init_snapshot.pop(r, None)
            self.rejoined_at[r] = now
            self._last_heard[r] = now
            details.append((r, excluded_at, exc_epoch))
        self.epoch += 1
        view = tuple(sorted(self._alive - self._excluded))
        self._views[self.epoch] = view
        if self.monitor is not None:
            self.monitor.emit(
                "view_change",
                actor=MEMBERSHIP_ACTOR,
                epoch=self.epoch,
                alive=list(view),
                dead=sorted(self._dead),
                excluded=sorted(self._excluded),
            )
        for r, excluded_at, exc_epoch in details:
            if self.resync_enabled:
                yield from self._token_resync(r, exc_epoch)
            if self.monitor is not None:
                self.monitor.emit(
                    "proc_rejoined",
                    actor=MEMBERSHIP_ACTOR,
                    rank=r,
                    epoch=self.epoch,
                    rejoined_at=self.env.now,
                    excluded_for_us=self.env.now - excluded_at,
                    resynced=self.resync_enabled,
                )
        for r, _, _ in details:
            self._resyncing.discard(r)
        self._resolve_nic_epochs()
        for callback in list(self._subscribers):
            callback(self.epoch)

    def _token_resync(self, rank: int, exc_epoch: int):
        """Replay token-lock regenerations the rank missed while excluded.

        The recorded ``view_change`` payload is re-sent *from the rank's
        own comm* (an intra-node self-send): per-pair FIFO delivery then
        guarantees the lock daemon applies it before any ``local_request``
        the application can post after the freeze gate opens, closing the
        stale-token window without a handshake.
        """
        from ..locks.token_base import LockMessage

        comm = self.runtime.comms[rank]
        for key in sorted(self._token_regen):
            regen_epoch, payload = self._token_regen[key]
            if regen_epoch < exc_epoch:
                continue  # regenerated before this rank left: already seen
            handle = self._locks.get(key, {}).get("handles", {}).get(rank)
            if handle is None:
                continue
            refreshed = dict(payload)
            # Point the rejoiner at the *current* holder when a lease
            # exists — the token may have moved since regeneration — and
            # keep the regeneration epoch so its request/floor epochs stay
            # consistent with what the majority daemons applied.
            target = self.lease_holder(key)
            if target is None or target == rank or not self._present(target):
                target = payload["holder"]
            if target == rank or not self._present(target):
                others = [v for v in self._views[self.epoch] if v != rank]
                target = min(others) if others else rank
            refreshed["holder"] = target
            refreshed["alive"] = sorted(set(payload["alive"]) | {rank})
            yield from comm.send(
                rank, LockMessage("view_change", target, refreshed), tag=handle.tag
            )

    # -- sync freeze gate ---------------------------------------------------------

    def freeze_gate(self, rank: int):
        """Block ``rank`` while it lacks quorum or is mid-rejoin.

        Sync operations (locks, barriers, fences) call this on entry: a
        minority-side or stalled rank queues here — it does *not* fail —
        and proceeds once it is back in a majority view and resynced.
        No-op (and never yields) when the plan has no transient faults.
        """
        if not self._transient:
            return

        def clear() -> bool:
            return (
                self.quorum_ok(rank)
                and rank not in self._excluded
                and rank not in self._resyncing
            )

        if clear():
            return
        start = self.env.now
        self._freeze_started[rank] = start
        if self.monitor is not None:
            self.monitor.emit(
                "sync_frozen", actor=MEMBERSHIP_ACTOR, rank=rank, frozen_at=start
            )
        while not clear():
            yield self.env.timeout(self._freeze_wait_us(rank))
        now = self.env.now
        self._freeze_started.pop(rank, None)
        self.freeze_log.append(
            {
                "rank": rank,
                "frozen_at_us": start,
                "unfrozen_at_us": now,
                "frozen_for_us": now - start,
            }
        )
        if self.monitor is not None:
            self.monitor.emit(
                "sync_unfrozen",
                actor=MEMBERSHIP_ACTOR,
                rank=rank,
                unfrozen_at=now,
                frozen_for_us=now - start,
            )

    def _freeze_wait_us(self, rank: int) -> float:
        """Sleep until the earliest fault window covering ``rank`` can end
        (then fall back to the membership poll period for the rejoin)."""
        now = self.env.now
        poll = self.params.membership_poll_us or 1.0
        ends = [p.until_us for p in self.plan.partitions if p.covers(now)]
        ends += [
            s.until_us
            for s in self.plan.pauses
            if s.rank == rank and s.covers(now)
        ]
        if ends:
            return max(min(ends) - now, poll)
        return poll

    # -- lock registry + leases ------------------------------------------------

    def lock_key(self, handle) -> Tuple[str, str, int]:
        return (handle.kind, handle.name, handle.home_rank)

    def register_lock(self, handle) -> None:
        """Called by every lock handle constructor (one entry per rank)."""
        key = self.lock_key(handle)
        info = self._locks.setdefault(key, {"kind": handle.kind, "handles": {}})
        info["handles"][handle.ctx.rank] = handle

    def lease_acquire(self, handle, ticket: Optional[int]) -> None:
        key = self.lock_key(handle)
        self._leases[key] = Lease(
            key=key,
            holder=handle.ctx.rank,
            ticket=ticket,
            acquired_at=self.env.now,
            epoch=self.epoch,
        )

    def lease_release(self, handle) -> None:
        key = self.lock_key(handle)
        lease = self._leases.get(key)
        if lease is not None and lease.holder == handle.ctx.rank:
            del self._leases[key]

    def lease_holder(self, key: Tuple[str, str, int]) -> Optional[int]:
        lease = self._leases.get(key)
        return lease.holder if lease is not None else None

    def fence_token(self, key: Tuple[str, str, int]) -> int:
        """Monotonic per-lock fencing counter; bumped at every revocation.

        A holder that snapshots this at grant time and finds it changed at
        release time lost its lease while it held the lock (crash recovery
        or partition exclusion regenerated the lock for the survivors) —
        its release must not touch the lock protocol again.
        """
        return self._fence_tokens.get(key, 0)

    def _bump_fence(self, key: Tuple[str, str, int]) -> None:
        self._fence_tokens[key] = self._fence_tokens.get(key, 0) + 1

    def _present(self, rank: int) -> bool:
        """Alive and inside the current view (not partition-excluded)."""
        return rank in self._alive and rank not in self._excluded

    def skip_revoked(self, home_rank: int, base_addr: int, value: int) -> int:
        """Advance a ticket counter value past revoked (dead) tickets."""
        revoked = self._revoked_tickets.get((home_rank, base_addr))
        if not revoked:
            return value
        while value in revoked:
            value += 1
        return value

    # -- write-off accounting ----------------------------------------------------

    def note_apply(self, src_rank: int, dst_rank: int) -> None:
        """A server applied one remote write op from ``src`` to ``dst``."""
        pair = (src_rank, dst_rank)
        self._applied[pair] = self._applied.get(pair, 0) + 1

    def written_off(self, me: int) -> int:
        """Credits owed to ``me`` by dead ranks: operations they issued
        toward ``me``'s server — counted in the barrier totals either live
        or through their kill-time snapshot — that the server will never
        apply.  A straggler op that does land later bumps both ``op_done``
        and the applied count, so the stage-2 comparison stays monotone.
        """
        total = 0
        for dead, snapshot in self._op_init_snapshot.items():
            owed = snapshot[me] - self._applied.get((dead, me), 0)
            if owed > 0:
                total += owed
        return total

    def dead_contribution(self, epoch: int) -> CountVector:
        """Elementwise sum of kill-time ``op_init`` snapshots of ranks dead
        in ``epoch``'s view.

        The lowest survivor folds this into its stage-1 contribution so the
        allreduce totals stay cumulative over the *original* universe —
        the targets' ``op_done`` counters are lifetime-cumulative and
        already include everything dead ranks completed before crashing.
        """
        view = set(self._views.get(epoch, ()))
        # A snapshotted rank still in the view contributes live (or forces a
        # view change).
        gone = [s for dead, s in self._op_init_snapshot.items() if dead not in view]
        return sum(gone, CountVector.zeros(self.topology.nprocs))

    # -- completion ledger -------------------------------------------------------

    def ledger_put(self, inst: Any, value: Any, epoch: Optional[int] = None) -> None:
        self._ledger[inst] = (value, self.epoch if epoch is None else epoch)

    def ledger_get(self, inst: Any) -> Optional[Tuple[Any, int]]:
        return self._ledger.get(inst)

    # -- reporting ---------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        detections = [
            {
                "rank": rank,
                "crashed_at_us": self.crashed_at[rank],
                "declared_at_us": self.declared_at[rank],
                "detect_latency_us": self.declared_at[rank] - self.crashed_at[rank],
            }
            for rank in sorted(self.declared_at)
        ]
        out = {
            "epoch": self.epoch,
            "alive": list(self.alive_ranks()),
            "dead": sorted(self._dead),
            "detections": detections,
            "recoveries": list(self.recovery_log),
        }
        if self._transient:
            out["excluded"] = sorted(self._excluded)
            out["rejoins"] = [
                {
                    "rank": rank,
                    "rejoined_at_us": self.rejoined_at[rank],
                }
                for rank in sorted(self.rejoined_at)
            ]
            out["freezes"] = list(self.freeze_log)
            out["heals"] = list(self.heal_log)
            out["suspicions_discarded"] = self.suspicions_discarded
        return out

    # -- lock recovery coordinators ----------------------------------------------

    def _recover_lock(
        self, key: Tuple[str, str, int], dead: int, transient: bool = False
    ):
        kind = self._locks[key]["kind"]
        started = self.env.now
        entry = {
            "lock": f"{key[0]}:{key[1]}@{key[2]}",
            "kind": kind,
            "dead_rank": dead,
            "declared_at_us": started,
            "recovered_at_us": None,
        }
        if transient:
            entry["transient"] = True
        self.recovery_log.append(entry)
        if kind in ("ticket", "hybrid", "server"):
            yield from self._recover_ticket_family(key, dead)
        elif kind == "lh":
            yield from self._recover_lh(key, dead, transient)
        elif kind == "mcs":
            yield from self._recover_mcs(key, dead, transient)
        elif kind in ("naimi", "raymond"):
            yield from self._recover_token(key, dead, kind)
        entry["recovered_at_us"] = self.env.now
        entry["recovery_latency_us"] = self.env.now - started

    # .. ticket / hybrid / server ..................................................

    def _recover_ticket_family(self, key: Tuple[str, str, int], dead: int):
        """Skip dead ticket numbers; ghost-advance if the dead rank held it.

        A ticket from ``counter`` upward that no *live* handle owns and no
        live waiter is queued for belongs to a dead requester (or to a
        grant lost on its way to one): it is revoked and skipped.
        """
        handles = self._locks[key]["handles"]
        any_handle = next(iter(handles.values()))
        home_rank = any_handle.home_rank
        base_addr = any_handle.base_addr
        region = self.runtime.regions[home_rank]
        revoked = self._revoked_tickets.setdefault((home_rank, base_addr), set())
        server = self.runtime.servers[self.topology.node_of(home_rank)]
        waiters = server._lock_waiters.get((home_rank, base_addr), {})

        def note_revoked(ticket: int, rank: int = dead) -> None:
            revoked.add(ticket)
            if self.monitor is not None:
                # The sanitizer's FIFO check must know which ticket numbers
                # were spliced out of the queue by crash recovery.
                self.monitor.emit(
                    "lease_revoked",
                    actor=MEMBERSHIP_ACTOR,
                    lock=f"{key[0]}:{key[1]}@{key[2]}",
                    rank=rank,
                    ticket=ticket,
                    epoch=self.epoch,
                )

        # Drop queued requests from dead ranks.
        for ticket, req in list(waiters.items()):
            if req.src_rank in self._dead:
                note_revoked(ticket, req.src_rank)
                del waiters[ticket]
        if self.params.server_lock_op_us > 0.0:
            yield self.env.timeout(self.params.server_lock_op_us)
        counter_addr = base_addr + 1
        counter = region.read(counter_addr)
        next_ticket = region.read(base_addr)
        # A dead shm-spinner's ticket may sit *behind* a live holder or
        # waiter, where the contiguous head scan below cannot reach (it
        # stops at the first live ticket, and no later declaration re-runs
        # it).  Revoke every not-yet-served ticket owned by a dead rank
        # here so skip_revoked can hop over it when the survivor ahead of
        # it eventually releases.
        for rank, h in handles.items():
            if rank not in self._dead:
                continue
            ticket = getattr(h, "_my_ticket", -1)
            if ticket >= counter and ticket not in revoked:
                note_revoked(ticket, rank)
        # ``rank != dead`` matters only for a transient exclusion (the
        # excluded holder is alive, but its at-head ticket must be ghost-
        # advanced past); for a crash ``dead`` is never in ``_alive``, so
        # the crash-only behaviour is unchanged.  Excluded *waiters* keep
        # their tickets — the head scan stops at them and they are served
        # after they rejoin.
        live_tickets = {
            h._my_ticket
            for rank, h in handles.items()
            if rank in self._alive
            and rank != dead
            and getattr(h, "_my_ticket", -1) >= 0
        }
        new = counter
        while new < next_ticket and new not in live_tickets and new not in waiters:
            if new not in revoked:
                note_revoked(new)
            new += 1
        if new == counter:
            return
        # The counter write wakes local spinners through the region watcher.
        if self.params.shm_access_us > 0.0:
            yield self.env.timeout(self.params.shm_access_us)
        region.write(counter_addr, new)
        pending = waiters.pop(new, None)
        if pending is not None:
            server.stats.grants += 1
            server._current_key = None
            yield from server._reply(pending.src_rank, pending.reply, value=new)

    # .. LH ........................................................................

    def _recover_lh(self, key: Tuple[str, str, int], dead: int, transient: bool = False):
        """Repair the LH queue: ghost-release for a dead holder, or chain a
        ghost forwarder for a dead waiter (grant flows through its cell)."""
        from ..locks.lh import _GRANTED

        handle = self._locks[key]["handles"][dead]
        region = handle._region
        p = self.params
        phase = getattr(handle, "_phase", "idle")
        if transient and phase != "held":
            # Exclusion only ghost-releases the fenced holder; an excluded
            # waiter keeps its queue slot and resumes spinning after heal.
            return
        if phase == "held":
            if p.shm_access_us > 0.0:
                yield self.env.timeout(p.shm_access_us)
            region.write(handle._spin_cell, _GRANTED)
        elif phase == "waiting":
            # When the predecessor eventually grants the dead waiter,
            # forward the grant to whoever spins on the cell it published.
            yield from region.wait_until(
                handle._prev_cell,
                lambda v: v == _GRANTED,
                poll_detect_us=p.poll_detect_us,
            )
            if p.shm_access_us > 0.0:
                yield self.env.timeout(p.shm_access_us)
            region.write(handle._published_cell, _GRANTED)

    # .. MCS .......................................................................

    def _recover_mcs(self, key: Tuple[str, str, int], dead: int, transient: bool = False):
        """Splice a dead rank out of the MCS chain by direct region surgery."""
        from ..locks.mcs import _FALSE, _OFF_LOCKED, _OFF_NEXT, _TRUE
        from .memory import NULL_PTR

        handle = self._locks[key]["handles"][dead]
        phase = getattr(handle, "_phase", "idle")
        p = self.params
        if transient and phase not in ("held", "releasing"):
            # Exclusion only ghost-releases the fenced holder; an excluded
            # waiter keeps its chain position and resumes after heal.
            return
        if phase in ("held", "releasing"):
            # "releasing": killed mid-release — after entering _release()
            # but before the handoff put / tail CAS completed.  The ghost
            # release observes the region first and only repairs what is
            # still missing, so it is safe for every partial outcome.
            yield from self._mcs_ghost_release(key, handle, dead)
            return
        if phase != "waiting":
            return
        prev = getattr(handle, "_prev_ptr", None)
        if prev is None or tuple(prev) == NULL_PTR:
            return  # died before entering the queue
        prev_rank, prev_base = prev
        prev_region = self.runtime.regions[prev_rank]
        dead_region = self.runtime.regions[dead]
        nbase = handle.node_struct.base
        my_ptr = (dead, nbase)
        if p.shm_access_us > 0.0:
            yield self.env.timeout(p.shm_access_us)
        link = (
            prev_region.read(prev_base + _OFF_NEXT),
            prev_region.read(prev_base + _OFF_NEXT + 1),
        )
        if link != my_ptr:
            # The dead rank swapped the tail but never finished linking:
            # complete its enqueue so the predecessor's release can find a
            # successor (and arm the locked flag the handoff will clear).
            dead_region.write(nbase + _OFF_LOCKED, _TRUE)
            prev_region.write(prev_base + _OFF_NEXT, my_ptr[0])
            prev_region.write(prev_base + _OFF_NEXT + 1, my_ptr[1])
        # Wait for the predecessor's (eventual) handoff, then pass it on.
        yield from dead_region.wait_until(
            nbase + _OFF_LOCKED,
            lambda v: v == _FALSE,
            poll_detect_us=p.poll_detect_us,
        )
        yield from self._mcs_ghost_release(key, handle, dead)

    def _mcs_lost_linker(self, handles, dead_handle, my_ptr):
        """The live waiter whose enqueue link targeted ``my_ptr``, if its
        locked flag is already armed (so a ghost handoff cannot race the
        arming store).  At most one waiter can have swapped the tail to
        find ``my_ptr`` as its predecessor."""
        from ..locks.mcs import _OFF_LOCKED, _TRUE

        for rank, h in handles.items():
            if h is dead_handle or getattr(h, "_phase", "idle") != "waiting":
                continue
            prev = getattr(h, "_prev_ptr", None)
            if prev is None or tuple(prev) != my_ptr or rank not in self._alive:
                continue
            base = h.node_struct.base
            if self.runtime.regions[rank].read(base + _OFF_LOCKED) == _TRUE:
                return (rank, base)
        return None

    def _mcs_ghost_release(self, key: Tuple[str, str, int], handle, dead: int):
        """Perform (or finish) the dead rank's release on its behalf.

        Idempotent against a release the dead rank had already begun: every
        branch observes the region state first and only repairs what is
        still missing — a handoff put or tail CAS that was applied before
        the crash is never redone (rewriting a successor's ``locked`` flag
        after it moved on would grant a later acquisition spuriously).
        """
        from ..locks.mcs import _FALSE, _OFF_LOCKED, _OFF_NEXT
        from .memory import NULL_PTR

        p = self.params
        handles = self._locks[key]["handles"]
        dead_region = self.runtime.regions[dead]
        nbase = handle.node_struct.base
        my_ptr = (dead, nbase)
        home_region = self.runtime.regions[handle.home_rank]
        home_node = self.topology.node_of(handle.home_rank)
        lock_addr = handle.lock_addr

        def read_next():
            return (
                dead_region.read(nbase + _OFF_NEXT),
                dead_region.read(nbase + _OFF_NEXT + 1),
            )

        def linker_pending() -> bool:
            """Will anyone still write a link into the dead node's next?

            True for a waiter that enqueued directly behind the dead node
            (its own spin code or crash recovery will complete the link),
            and for a live waiter whose tail swap has not resolved yet —
            it may still turn out to have swapped behind the dead node.
            """
            for rank, h in handles.items():
                if h is handle or getattr(h, "_phase", "idle") != "waiting":
                    continue
                prev = getattr(h, "_prev_ptr", None)
                if prev is not None and tuple(prev) == my_ptr:
                    return True
                if prev is None and rank in self._alive:
                    return True
            return False

        if p.shm_access_us > 0.0:
            yield self.env.timeout(p.shm_access_us)
        next_ptr = read_next()
        if next_ptr == NULL_PTR:
            if p.shm_atomic_us > 0.0:
                yield self.env.timeout(p.shm_atomic_us)
            tail = (home_region.read(lock_addr), home_region.read(lock_addr + 1))
            if tail == my_ptr:
                # Still the tail with no successor: the dead rank's release
                # CAS never applied (or was never issued); perform it.
                home_region.write(lock_addr, NULL_PTR[0])
                home_region.write(lock_addr + 1, NULL_PTR[1])
                return
            if tail == NULL_PTR:
                # The dead rank's own release CAS already applied.
                return
            # The tail moved past the dead node.  Either a successor
            # swapped in behind it and has not linked yet (the link will
            # come), or the dead rank completed its release CAS before
            # crashing and the tail belongs to a fresh chain that owes the
            # dead node nothing.  Resolve by watching the link cell and
            # the waiting handles until one of the two becomes certain.
            dead_node = self.topology.node_of(dead)
            while True:
                next_ptr = read_next()
                if next_ptr != NULL_PTR:
                    break
                if self.node_dead(dead_node):
                    # The dead rank's whole node is down, so a live
                    # successor's link write — routed through that node's
                    # server — can never be applied; waiting for it would
                    # spin forever.  Complete the enqueue on the linker's
                    # behalf (idempotent: the original write is provably
                    # lost).  Only once the linker has armed its own
                    # locked flag, or the handoff below could race the
                    # arming store and be overwritten.
                    linker = self._mcs_lost_linker(handles, handle, my_ptr)
                    if linker is not None:
                        dead_region.write(nbase + _OFF_NEXT, linker[0])
                        dead_region.write(nbase + _OFF_NEXT + 1, linker[1])
                        continue
                if not linker_pending() or self.node_dead(home_node):
                    return  # nobody will ever link: release already done
                yield self.env.timeout(p.membership_poll_us)
        # Hand off — unless the dead rank's own handoff already landed and
        # the successor moved on (its locked flag may since be re-armed).
        succ = handles.get(next_ptr[0])
        if succ is not None and getattr(succ, "_phase", "waiting") != "waiting":
            return
        if p.shm_access_us > 0.0:
            yield self.env.timeout(p.shm_access_us)
        next_rank, next_base = next_ptr
        self.runtime.regions[next_rank].write(next_base + _OFF_LOCKED, _FALSE)

    # .. token algorithms (Naimi-Trehel, Raymond) ...................................

    def _recover_token(self, key: Tuple[str, str, int], dead: int, kind: str):
        """Coordinator-led reconfiguration: regenerate the token at a
        deterministic survivor and reset every survivor's pointers via
        injected ``view_change`` messages (star re-request topology)."""
        handles = self._locks[key]["handles"]
        alive_handles = {
            r: h for r, h in handles.items() if self._present(r)
        }
        if not alive_handles:
            return
        any_handle = next(iter(alive_handles.values()))
        tag = any_handle.tag
        token_safe_at = self._find_live_token(alive_handles, tag, kind)
        if token_safe_at is not None:
            new_holder = token_safe_at
            token_lost = False
        else:
            requesting = sorted(
                (getattr(h, "_requested_at", float("inf")), r)
                for r, h in alive_handles.items()
                if self._token_requesting(h, kind)
            )
            new_holder = requesting[0][1] if requesting else min(alive_handles)
            token_lost = True
        payload = {
            "epoch": self.epoch,
            "holder": new_holder,
            "alive": sorted(alive_handles),
            "token_lost": token_lost,
        }
        # Remember the regeneration so a rank excluded at this point can
        # replay the view change when it rejoins (it never receives the
        # sends below).
        self._token_regen[key] = (self.epoch, dict(payload))
        # Deliver the view change holder-first, then earliest requester
        # first, so the rebuilt request chain preserves arrival order of
        # the surviving requests.
        order = sorted(
            alive_handles,
            key=lambda r: (
                r != new_holder,
                getattr(alive_handles[r], "_requested_at", float("inf"))
                if self._token_requesting(alive_handles[r], kind)
                else float("inf"),
                r,
            ),
        )
        from ..locks.token_base import LockMessage

        comm = self.runtime.comms[new_holder]
        for rank in order:
            yield from comm.send(
                rank, LockMessage("view_change", new_holder, payload), tag=tag
            )

    @staticmethod
    def _token_requesting(handle, kind: str) -> bool:
        if kind == "naimi":
            return bool(handle.requesting)
        return "self" in handle.request_q or handle.using

    def _find_live_token(self, alive_handles, tag, kind) -> Optional[int]:
        """The survivor that holds (or is about to receive) the token."""
        token_kind = "token" if kind == "naimi" else "privilege"
        for rank in sorted(alive_handles):
            handle = alive_handles[rank]
            if kind == "naimi" and handle.has_token:
                return rank
            if kind == "raymond" and handle.holder == "self":
                return rank
            # A token message already delivered to the rank's mailbox but
            # not yet processed by its daemon still counts as safe.
            comm = self.runtime.comms[rank]
            for envelope in comm.mailbox.items:
                msg = getattr(envelope, "payload", None)
                if msg is None or getattr(msg, "tag", None) != tag:
                    continue
                if getattr(msg.payload, "kind", None) == token_kind:
                    return rank
        return None
