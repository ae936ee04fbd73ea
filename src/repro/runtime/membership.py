"""Crash-stop membership: failure detection, epoch views, leases.

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

* **Leases and fencing.**  Lock acquisitions are recorded as leases
  (holder, ticket, epoch).  When the holder — or any queued waiter —
  leaves the view, the service revokes the lease, bumps the lock's
  fencing token and starts the lock's own ``recover`` coordinator
  (:meth:`repro.locks.base.BaseLock.recover`): how a queue is spliced or
  a token regenerated is the algorithm's business, not this module's.

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
collectives is a single ``is None`` check, so fault-free runs never touch
this module.  A crash-only plan is simply a plan with no windows: every
decision below has one body, and the quorum questions it asks answer
"no window explains this" from the empty plan.  ``transient`` is an
observation of the plan, read only to skip per-message / per-sync work
and to shape reports.
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


def _lock_label(key: Tuple[str, str, int]) -> str:
    """``kind:name@home`` — a lock's name in events and the recovery log."""
    return f"{key[0]}:{key[1]}@{key[2]}"


@dataclass
class Lease:
    """One lock acquisition recorded for crash recovery."""

    holder: int
    ticket: Optional[int]


class MembershipService:
    """Per-runtime failure detector, view manager, and recovery engine."""

    def __init__(self, runtime: "ClusterRuntime"):
        self.runtime = runtime
        self.env = runtime.env
        self.params = runtime.params
        self.topology = runtime.topology
        self.fabric = runtime.fabric
        self.monitor = runtime.monitor
        plan = self.params.faults
        self.plan = plan
        nprocs = self.topology.nprocs
        self._seed = plan.seed if plan.seed is not None else self.params.seed

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

        #: Lock registry: (kind, name, home_rank) -> {"cls", "handles"}.
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

        # -- transient-fault (partition / pause) state: all of it stays
        # empty unless the plan schedules partition or pause windows.
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
        self.freeze_log: List[Dict[str, Any]] = []
        self.heal_log: List[Dict[str, Any]] = []
        self.suspicions_discarded = 0
        #: Keep the heartbeat/detector loops alive through the last
        #: transient window plus one full detection cycle.
        cycle = self.params.suspect_timeout_us + self.params.membership_check_us
        self._loops_until = plan.transient_end_us + cycle if plan.transient else 0.0

        #: Recovery trail (chaosbench reporting + tests).
        self.recovery_log: List[Dict[str, Any]] = []
        self._subscribers: List[Any] = []

    def __repr__(self) -> str:
        return (
            f"<MembershipService epoch={self.epoch} "
            f"alive={len(self._alive)} dead={sorted(self._dead)}>"
        )

    def _emit(self, kind: str, **fields: Any) -> None:
        """One membership event into the RMCSan trace (if one is collected)."""
        if self.monitor is not None:
            self.monitor.emit(kind, actor=MEMBERSHIP_ACTOR, **fields)

    # -- wiring ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap process creation and start executors/heartbeats/detector."""
        env = self.env
        # Chain through the environment's factory hook (Environment uses
        # __slots__); an already-installed factory (e.g. the RMCSan
        # monitor's actor inheritance) keeps working underneath ours.
        base_factory = env.process_factory

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

        env.process_factory = process_with_ownership
        for crash in self.plan.crashes:
            env.process(self._crash_executor(crash), name=f"crash@{crash.at_us}")
        for part in self.plan.partitions:
            env.process(self._heal_executor(part), name=f"heal@{part.until_us}")
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

    # -- quorum -------------------------------------------------------------------

    def _window_active(self, when: float) -> bool:
        return any(p.covers(when) for p in self.plan.partitions)

    def _majority_component(self, when: float) -> Tuple[int, ...]:
        """The component holding a strict majority of live nodes, or ``()``.

        The quorum rule is a *strict* majority (``2 * |component| >
        |live nodes|``): an even split freezes both sides, which is the
        only safe answer — healing is scheduled, so freezing cannot
        deadlock, while letting both halves of a 2-2 split proceed is
        exactly the split-brain this subsystem exists to prevent.
        """
        live = tuple(
            n for n in range(self.topology.nnodes) if n not in self._killed_nodes
        )
        for comp in self.plan.components(live, when):
            if 2 * len(comp) > len(live):
                return comp
        return ()

    def _in_majority_component(self, node: int, when: float) -> bool:
        return node in self._majority_component(when)

    def _majority_exists(self, when: float) -> bool:
        """Does *some* component hold a strict majority of live nodes?"""
        return not self._window_active(when) or bool(self._majority_component(when))

    def quorum_ok(self, rank: int) -> bool:
        """May ``rank`` run sync operations right now (quorum side, not
        paused)?  Always true without transient windows."""
        return not self._transient_attributable(rank, self.env.now)

    def _transient_attributable(self, rank: int, when: float) -> bool:
        """Is ``rank``'s silence explained by an active transient window
        (paused, or cut off from the majority component)?"""
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
        # NIC engines stamp tuple sources: no rank liveness to suppress.
        return isinstance(rank, int) and not self.quorum_ok(rank)

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
        layer, which = endpoint
        now = self.env.now
        if layer == "mp":
            targets: Tuple[int, ...] = (which,)
            dead_reason = reason
        else:
            targets = tuple(self.topology.ranks_on(which))
            dead_reason = f"node {which}: {reason}"
            if not self._window_active(now):
                # A server (or NIC co-processor) that stopped acknowledging
                # with no cut to blame is a machine crash: the node's ranks
                # go with it.
                self._killed_nodes.add(which)
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
                self._declare_dead(rank, reason=dead_reason)

    # -- crash execution -------------------------------------------------------

    def _crash_executor(self, crash):
        yield crash.at_us
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
        self._op_init_snapshot[rank] = CountVector(self.runtime.armcis[rank].op_init)
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
        self.runtime.servers[node].kill()
        self.fabric.mark_dead(("srv", node))
        if self.fabric.reliable is not None:
            # The machine's own senders die with it: no reply or NIC frame
            # is retransmitted from a crashed node.
            self.fabric.reliable.abandon_sender(("reply", node))
            self.fabric.reliable.abandon_sender(("nic", node))
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
        engines = self.fabric.nic_engines
        if engines is not None and node in engines:
            engines[node].shutdown()
        self._emit("nic_crashed", node=node, at=self.env.now)

    def nic_dead(self, node: int) -> bool:
        """True once ``node``'s NIC co-processor has been killed."""
        return node in self._dead_nics

    # -- detection -------------------------------------------------------------

    def _loops_done(self) -> bool:
        """May the heartbeat/detector loops retire?

        Once every planned death is declared, the last transient window
        plus one detection cycle has passed (time 0 without windows), and
        no rank is still excluded (its rejoin needs a live detector epoch).
        """
        return (
            self._planned_ranks <= self._dead
            and self.env.now >= self._loops_until
            and not self._excluded
        )

    def _heartbeat_loop(self, rank: int):
        rng = random.Random(f"membership:{self._seed}:{rank}")
        interval = self.params.heartbeat_us
        if interval <= 0.0:  # heartbeats disabled: rely on traffic + retries
            return
        while not self._loops_done():
            yield interval * (0.75 + 0.5 * rng.random())
            if rank in self._dead:
                return
            self.heartbeat(rank, self.env.now)

    def _detector_loop(self):
        p = self.params
        check = p.membership_check_us if p.membership_check_us > 0.0 else p.heartbeat_us
        if check <= 0.0:  # pragma: no cover - degenerate configuration
            return
        while not self._loops_done():
            yield check
            now = self.env.now
            for rank in sorted(self._alive):
                if rank in self._excluded:
                    continue
                if now - self._last_heard[rank] > p.suspect_timeout_us:
                    if self._transient_attributable(rank, now):
                        # Silence explained by an active window: transient
                        # exclusion (if a quorum exists to corroborate it),
                        # never a death declaration.
                        if self._majority_exists(now):
                            self._exclude_rank(rank, reason="heartbeat silence")
                        continue
                    self._declare_dead(rank, reason="heartbeat silence")

    # -- the view transition ------------------------------------------------------

    def _install_view(self) -> None:
        """The one view transition: next epoch, its survivor view, and the
        ``view_change`` event every RMCSan rule keys on."""
        self.epoch += 1
        view = tuple(sorted(self._alive - self._excluded))
        self._views[self.epoch] = view
        extra = {"excluded": sorted(self._excluded)} if self._transient else {}
        self._emit(
            "view_change",
            epoch=self.epoch,
            alive=list(view),
            dead=sorted(self._dead),
            **extra,
        )

    def _publish(self) -> None:
        """Let the rest of the system observe the installed view.

        Commit-or-abort for NIC barrier epochs comes *before* hosts
        observe the view change: a host woken by its subscriber callback
        must already see its release fired if the epoch committed anywhere.
        """
        self._resolve_nic_epochs()
        for callback in list(self._subscribers):
            callback(self.epoch)

    def _revoke_lease(self, key, lease: Lease, live: bool) -> None:
        """Take the lock away from a holder that left the view; the fence
        bump makes the ex-holder's own release (if it ever runs) a no-op."""
        del self._leases[key]
        self._fence_tokens[key] = self._fence_tokens.get(key, 0) + 1
        self._emit(
            "lease_revoked",
            lock=_lock_label(key),
            rank=lease.holder,
            ticket=lease.ticket,
            epoch=self.epoch,
            **({"live": True} if live else {}),
        )

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
        self._excluded.discard(rank)
        self._excluded_at.pop(rank, None)
        self._excluded_epoch.pop(rank, None)
        self.declared_at[rank] = now
        node = self.topology.node_of(rank)
        self._emit(
            "proc_crashed",
            rank=rank,
            node=node,
            node_crashed=node in self._killed_nodes,
            crashed_at=self.crashed_at[rank],
            declared_at=now,
            detect_latency_us=now - self.crashed_at[rank],
            reason=reason,
        )
        self._install_view()
        for key, lease in list(self._leases.items()):
            if lease.holder == rank:
                self._revoke_lease(key, lease, live=False)
        # Splice the dead rank out of every lock it participates in.
        for key in sorted(self._locks):
            if rank in self._locks[key]["handles"]:
                self._start_recovery(key, rank, transient=False)
        self._publish()

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
        engines = self.fabric.nic_engines
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
        # Exactly as the crash path does, so majority-side barriers can
        # write off credits the excluded rank's frozen traffic will not
        # deliver until heal.
        self._op_init_snapshot[rank] = CountVector(self.runtime.armcis[rank].op_init)
        opens = self.epoch + 1  # the epoch this exclusion installs below
        self._excluded_epoch[rank] = opens
        self._emit(
            "proc_excluded",
            rank=rank,
            node=self.topology.node_of(rank),
            excluded_at=now,
            epoch=opens,
            reason=reason,
        )
        self._install_view()
        # Revoke + fence any lease the excluded rank holds and regenerate
        # the lock for the majority.  Message-based (token) locks are
        # always recoverable; the shared-memory families need the lock's
        # home region on the majority side — when the home node is cut off
        # too, the lease stays put and majority requesters simply queue
        # until heal (safe: nobody can reach the lock words either way).
        for key, lease in list(self._leases.items()):
            if lease.holder != rank:
                continue
            if self._locks[key]["cls"].lock_words_at_home:
                home_node = self.topology.node_of(key[2])
                if not self._in_majority_component(home_node, now):
                    continue
            self._revoke_lease(key, lease, live=True)
            self._start_recovery(key, rank, transient=True)
        self._publish()

    def _heal_executor(self, part):
        """Runs at a partition's ``until_us``: reset silence clocks and
        rejoin every excluded rank that is back in a majority component."""
        yield part.until_us
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
        self._emit(
            "partition_heal",
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
        yield pause.until_us
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
        self._install_view()
        for r, excluded_at, exc_epoch in details:
            if self.resync_enabled:
                yield from self._token_resync(r, exc_epoch)
            self._emit(
                "proc_rejoined",
                rank=r,
                epoch=self.epoch,
                rejoined_at=self.env.now,
                excluded_for_us=self.env.now - excluded_at,
                resynced=self.resync_enabled,
            )
        self._resyncing.difference_update(eligible)
        self._publish()

    def _token_resync(self, rank: int, exc_epoch: int):
        """Replay token-lock regenerations the rank missed while excluded
        (each lock builds and posts its own ``view_change`` replay)."""
        for key in sorted(self._token_regen):
            regen_epoch, payload = self._token_regen[key]
            if regen_epoch < exc_epoch:
                continue  # regenerated before this rank left: already seen
            handle = self._locks[key]["handles"].get(rank)
            if handle is not None:
                yield from handle.replay_view_change(self, payload)

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
        self._emit("sync_frozen", rank=rank, frozen_at=start)
        while not clear():
            yield self._freeze_wait_us(rank)
        now = self.env.now
        self.freeze_log.append(
            {
                "rank": rank,
                "frozen_at_us": start,
                "unfrozen_at_us": now,
                "frozen_for_us": now - start,
            }
        )
        self._emit(
            "sync_unfrozen", rank=rank, unfrozen_at=now, frozen_for_us=now - start
        )

    def _freeze_wait_us(self, rank: int) -> float:
        """Sleep until the earliest fault window covering ``rank`` can end
        (then fall back to the membership poll period for the rejoin)."""
        now = self.env.now
        poll = self.params.membership_poll_us
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
        info = self._locks.setdefault(
            self.lock_key(handle), {"cls": type(handle), "handles": {}}
        )
        info["handles"][handle.ctx.rank] = handle

    def lease_acquire(self, handle, ticket: Optional[int]) -> None:
        self._leases[self.lock_key(handle)] = Lease(handle.ctx.rank, ticket)

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

    def skip_revoked(self, home_rank: int, base_addr: int, value: int) -> int:
        """Advance a ticket counter value past revoked (dead) tickets."""
        revoked = self._revoked_tickets.get((home_rank, base_addr))
        if not revoked:
            return value
        while value in revoked:
            value += 1
        return value

    def revoke_ticket(self, key, cells: Tuple[int, int], ticket: int, rank: int) -> None:
        """Splice ``rank``'s ticket out of the queue of the ticket-family
        lock ``key`` whose ``[ticket, counter]`` pair lives at ``cells``
        (no-op for a ticket already spliced out)."""
        revoked = self._revoked_tickets.setdefault(cells, set())
        if ticket in revoked:
            return
        revoked.add(ticket)
        # The sanitizer's FIFO check must know which ticket numbers were
        # spliced out of the queue by crash recovery.
        self._emit(
            "lease_revoked",
            lock=_lock_label(key),
            rank=rank,
            ticket=ticket,
            epoch=self.epoch,
        )

    def record_token_regen(self, key, payload: Dict[str, Any]) -> None:
        """Remember a token lock's ``view_change`` so a rank excluded at
        this point can replay it when it rejoins (it never receives the
        original sends)."""
        self._token_regen[key] = (self.epoch, dict(payload))

    # -- lock recovery ----------------------------------------------------------------

    def _start_recovery(self, key, rank: int, transient: bool) -> None:
        self.env.process(
            self._recover_lock(key, rank, transient),
            name=f"recover:{key[0]}:{key[1]}:{rank}",
        )

    def _recover_lock(self, key, dead: int, transient: bool):
        """Run the lock's own recovery coordinator, logging its latency."""
        info = self._locks[key]
        started = self.env.now
        entry = {
            "lock": _lock_label(key),
            "kind": key[0],
            "dead_rank": dead,
            "declared_at_us": started,
            "recovered_at_us": None,
        }
        if transient:
            entry["transient"] = True
        self.recovery_log.append(entry)
        yield from info["cls"].recover(self, info["handles"], dead, transient)
        entry["recovered_at_us"] = self.env.now
        entry["recovery_latency_us"] = self.env.now - started

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
                {"rank": rank, "rejoined_at_us": self.rejoined_at[rank]}
                for rank in sorted(self.rejoined_at)
            ]
            out["freezes"] = list(self.freeze_log)
            out["heals"] = list(self.heal_log)
            out["suspicions_discarded"] = self.suspicions_discarded
        return out
