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
  timestamps every :data:`CHECK_US` and declares a rank dead after
  :data:`SUSPECT_TIMEOUT_US` of silence.  The reliable transport short-cuts
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

:class:`MembershipCore` holds every fact and decision above, with no
``Environment``: it takes the time as an argument and never yields.
:class:`MembershipService` is the shell that owns the processes and the
machine handles, and feeds the core ``env.now``.

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
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from ..mp.vector import CountVector
from ..net.faults import Partition
from ..net.message import Endpoint
from ..net.params import MEMBERSHIP_POLL_US
from ..sim.core import Process

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import ClusterRuntime

__all__ = ["MembershipCore", "MembershipService"]

#: Actor label used for membership events in RMCSan traces.
MEMBERSHIP_ACTOR = "membership"

#: Interval at which each live rank refreshes its liveness with the
#: detector (jittered ±25% from a seeded per-rank RNG).  Fabric traffic
#: piggybacks the same refresh, so heartbeats only matter for idle
#: processes.
HEARTBEAT_US = 25.0
#: Silence threshold after which the detector declares a rank dead and
#: bumps the membership epoch.  Comfortably exceeds ``HEARTBEAT_US`` plus
#: its jitter; a larger value trades detection latency for immunity to
#: slow paths.
SUSPECT_TIMEOUT_US = 120.0
#: Period of the detector's scan over last-heard timestamps.
CHECK_US = 20.0


def _lock_label(key: Tuple[str, str, int]) -> str:
    """``kind:name@home`` — a lock's name in events and the recovery log."""
    return f"{key[0]}:{key[1]}@{key[2]}"


class MembershipCore:
    """Every membership fact and decision, with no ``Environment``: inputs
    carry the time, and effects leave through the constructor's callables
    — ``emit(kind, **fields)``, ``kill(rank)`` (fail-stop a rank just
    marked crashed), ``issued(rank)`` (its ``op_init`` snapshot),
    ``recover(key, rank, transient)`` and ``publish()``."""

    def __init__(self, topology, plan, *, emit, kill, issued, recover, publish):
        self.topology = topology
        self.plan = plan
        self._emit = emit
        self._kill = kill
        self._issued = issued
        self._recover = recover
        self._publish = publish
        nprocs = topology.nprocs

        #: Current membership epoch; bumped once per installed view.
        self.epoch = 0
        #: Epoch -> survivor view (sorted tuple) at the time it started.
        self._views: Dict[int, Tuple[int, ...]] = {0: tuple(range(nprocs))}
        self._last_heard: Dict[int, float] = {r: 0.0 for r in range(nprocs)}
        #: Actual kill time per rank (detection latency).
        self.crashed_at: Dict[int, float] = {}
        #: Declaration time per rank: the one record of who is dead (a rank
        #: is alive exactly while it is not a key here).
        self.declared_at: Dict[int, float] = {}
        #: Nodes whose server was killed (machine crashes).
        self._killed_nodes: Set[int] = set()

        # Which ranks the plan will kill (node crashes expand to all hosted
        # ranks); heartbeats and the detector retire once every planned
        # death has been declared, so the event queue can drain.
        planned: Set[int] = set()
        for crash in plan.crashes:
            if crash.rank is not None:
                planned.add(crash.rank)
            elif crash.node is not None:
                planned.update(topology.ranks_on(crash.node))
            # NIC-only crashes kill no rank directly: the hosted ranks die
            # only if transport suspicion escalates the silent NIC to a
            # machine crash, so they are not *planned* deaths and must not
            # keep the heartbeat/detector loops alive waiting for them.
        self._planned_ranks = planned

        #: Lock registry: (kind, name, home_rank) -> {"cls", "handles"}.
        self._locks: Dict[Tuple[str, str, int], Dict[str, Any]] = {}
        #: Active leases: key -> (holder, ticket, release committed).
        self._leases: Dict[Tuple[str, str, int], Tuple[int, Optional[int], bool]] = {}

        #: Per-(src, dst) count of remote write ops applied at the server.
        self._applied: Dict[Tuple[int, int], int] = {}
        #: Dead ranks' op_init arrays, snapshotted at kill time.
        self._op_init_snapshot: Dict[int, CountVector] = {}

        #: Completion ledger for crash-resilient collectives:
        #: instance key -> (value, epoch the instance completed under).
        self._ledger: Dict[Any, Tuple[Any, int]] = {}

        # -- transient-fault (partition / pause) state: all of it stays
        # empty unless the plan schedules partition or pause windows.
        #: Does the plan schedule recoverable faults (partitions / pauses)?
        self.transient = plan.transient
        #: Ranks transiently excluded from the view (alive, not dead): the
        #: one record of who is excluded, rank -> (excluded_at, the epoch
        #: its exclusion installed).
        self._excluded: Dict[int, Tuple[float, int]] = {}
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
        self.suspicions_discarded = 0
        #: Keep the heartbeat/detector loops alive through the last
        #: transient window plus one full detection cycle.
        cycle = SUSPECT_TIMEOUT_US + CHECK_US
        self._loops_until = plan.transient_end_us + cycle if plan.transient else 0.0

    # -- views ----------------------------------------------------------------

    def is_alive(self, rank: int) -> bool:
        return rank not in self.declared_at

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
        return all(r in self.declared_at for r in self.topology.ranks_on(node))

    def dead_ranks(self) -> Tuple[int, ...]:
        return tuple(sorted(self.declared_at))

    def in_view(self, rank: int) -> bool:
        """Is ``rank`` a member of the current view (alive and included)?"""
        return rank not in self.declared_at and rank not in self._excluded

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

    def _majority_exists(self, when: float) -> bool:
        """Does *some* component hold a strict majority of live nodes?"""
        return not self._window_active(when) or bool(self._majority_component(when))

    def attributable(self, rank: int, when: float) -> bool:
        """Is ``rank``'s silence explained by an active transient window
        (paused, or cut off from the majority component)?"""
        if self.plan.stalled(rank, when):
            return True
        if not self._window_active(when):
            return False
        return self.topology.node_of(rank) not in self._majority_component(when)

    # -- liveness inputs -------------------------------------------------------

    def heard(self, rank: Any, now: float) -> None:
        """The one liveness refresh, from fabric posts (a NIC engine's tuple
        source names no rank) and heartbeats.  During a transient window
        the refresh is suppressed for ranks the majority cannot hear
        (paused, or on the minority side of a cut): their local sends do
        not reach the detector's side, so letting them refresh would blind
        the failure detector to the partition."""
        if rank in self._last_heard and rank not in self.declared_at:
            if self.transient and self.attributable(rank, now):
                return
            self._last_heard[rank] = now

    def suspected(self, endpoint: Endpoint, now: float, reason: str) -> None:
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
            if self.in_view(rank):
                self._unheard(rank, now, reason, dead_reason, suspicion=True)

    def crash(self, rank: int, now: float) -> None:
        """Fail-stop ``rank`` (no-op if it already crashed): record the
        time, snapshot its issued credits, silence it."""
        if rank in self.crashed_at:
            return
        self.crashed_at[rank] = now
        self._op_init_snapshot[rank] = self._issued(rank)
        self._kill(rank)

    def detect(self, now: float) -> None:
        """One detector scan: act on every in-view rank silent too long."""
        silence = "heartbeat silence"
        for rank, heard_at in self._last_heard.items():
            if now - heard_at > SUSPECT_TIMEOUT_US and self.in_view(rank):
                self._unheard(rank, now, silence, silence, suspicion=False)

    def _unheard(self, rank, now, reason, dead_reason, suspicion: bool) -> None:
        """The one decision on a rank nobody hears: silence an active window
        explains is a transient exclusion (if a quorum exists to
        corroborate it), never a death declaration."""
        if self.attributable(rank, now):
            if self._majority_exists(now):
                self.exclude(rank, now, reason=reason)
            elif suspicion:
                # Even split: no side has quorum, nobody may act.
                self.suspicions_discarded += 1
        elif suspicion and self._window_active(now):
            # A cut is active and the target sits on the majority side: a
            # quorum of peers still hears it, so the raiser is the
            # partitioned one.  Discard.
            self.suspicions_discarded += 1
        else:
            self.declare(rank, now, reason=dead_reason)

    def loops_done(self, now: float) -> bool:
        """May the heartbeat/detector loops retire?

        Once every planned death is declared, the last transient window
        plus one detection cycle has passed (time 0 without windows), and
        no rank is still excluded (its rejoin needs a live detector epoch).
        """
        return (
            self._planned_ranks.issubset(self.declared_at)
            and now >= self._loops_until
            and not self._excluded
        )

    # -- the view transition ------------------------------------------------------

    def _install_view(self) -> None:
        """The one view transition: next epoch, its survivor view, and the
        ``view_change`` event every RMCSan rule keys on."""
        self.epoch += 1
        view = tuple(r for r in range(self.topology.nprocs) if self.in_view(r))
        self._views[self.epoch] = view
        extra = {"excluded": sorted(self._excluded)} if self.transient else {}
        self._emit(
            "view_change",
            epoch=self.epoch,
            alive=list(view),
            dead=sorted(self.declared_at),
            **extra,
        )

    def _revoke_lease(self, key, live: bool) -> None:
        """Take the lock away from a holder that left the view; the fence
        bump makes the ex-holder's own release (if it ever runs) a no-op."""
        holder, ticket, _committed = self._leases.pop(key)
        self._fence_tokens[key] = self._fence_tokens.get(key, 0) + 1
        self.revoked(key, holder, ticket, live)

    def revoked(self, key, rank: int, ticket: Optional[int], live: bool = False) -> None:
        """Report that ``rank`` lost its lease on lock ``key``, or (from a
        ticket lock's home) a ticket passed over because its owner died."""
        self._emit(
            "lease_revoked",
            lock=_lock_label(key),
            rank=rank,
            ticket=ticket,
            epoch=self.epoch,
            **({"live": True} if live else {}),
        )

    def declare(self, rank: int, now: float, reason: str) -> None:
        if rank in self.declared_at:
            return
        # Suspected without a scheduled kill (e.g. a fully partitioned
        # link): enforce fail-stop so the suspected rank cannot act on a
        # view that no longer contains it.
        self.crash(rank, now)
        # Death trumps transient exclusion: a rank that crashed while
        # partitioned away must not linger in the excluded set (it will
        # never rejoin, and the loops wait for exclusions to drain).
        self._excluded.pop(rank, None)
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
        for key, (holder, _ticket, _committed) in list(self._leases.items()):
            if holder == rank:
                self._revoke_lease(key, live=False)
        # Splice the dead rank out of every lock it participates in.
        for key in sorted(self._locks):
            if rank in self._locks[key]["handles"]:
                self._recover(key, rank, False)
        self._publish()

    # -- transient exclusion, window end, and rejoin ----------------------------

    def exclude(self, rank: int, now: float, reason: str) -> None:
        """Reversibly remove a partition/stall casualty from the view.

        Unlike :meth:`declare` the rank is *not* killed: its processes
        keep running (on the minority side they freeze at their next sync
        operation), its memory survives, and it rejoins through
        :meth:`end_window` once the fault window closes.  A lease it holds
        whose release has not committed yet is revoked and fenced so the
        majority can regenerate the lock, and the ex-holder's own release
        is rejected by the fence check where it would commit; a committed
        release (:meth:`lease_commit`) hands the lock on by itself and
        keeps its lease (``docs/fault_model.md``, "The recovery protocol",
        step 3).
        """
        if not self.in_view(rank):
            return
        opens = self.epoch + 1  # the epoch this exclusion installs below
        self._excluded[rank] = (now, opens)
        # Exactly as the crash path does, so majority-side barriers can
        # write off credits the excluded rank's frozen traffic will not
        # deliver until heal.
        self._op_init_snapshot[rank] = self._issued(rank)
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
        for key, (holder, _ticket, committed) in list(self._leases.items()):
            if holder != rank or committed:
                # A committed release hands the lock on by itself.
                continue
            if self._locks[key]["cls"].lock_words_at_home:
                home_node = self.topology.node_of(key[2])
                if home_node not in self._majority_component(now):
                    continue
            self._revoke_lease(key, live=True)
            self._recover(key, rank, True)
        self._publish()

    def end_window(self, scope: Iterable[int], now: float, part) -> list:
        """A window over ``scope`` closed (partition ``part`` healed, or a
        stall with ``part`` None resumed): readmit, under one new epoch,
        the excluded ranks a quorum hears again, as ``(rank, excluded_at,
        exclusion epoch)``, held until :meth:`resynced`.

        The issued-op snapshot taken at exclusion is retired here, so
        credit accounting re-baselines on the rank's live counters (queued
        cross-cut traffic delivered after heal bumps ``op_done`` and the
        applied counts monotonically).
        """
        scope = set(scope)
        # The disruption is over; pre-window silence must not be
        # misattributed to post-window crash suspicion.
        for r in scope:
            if r not in self.declared_at:
                self._last_heard[r] = now
        # Excluded ranks that crashed while away will never rejoin.
        for r in sorted(self._excluded):
            if r in scope and r in self.crashed_at:
                self.declare(r, now, reason="crashed while excluded")
        healing = [r for r in sorted(self._excluded) if r in scope]
        healing = [r for r in healing if not self.attributable(r, now)]
        if part is not None:
            self._emit(
                "partition_heal",
                nodes=list(part.nodes),
                from_us=part.from_us,
                healed_at=now,
                rejoining=list(healing),
            )
        readmitted = [(r, *self._excluded.pop(r)) for r in healing]
        for r in healing:
            self._op_init_snapshot.pop(r, None)
            self.rejoined_at[r] = now
            self._last_heard[r] = now
        if healing:
            self._resyncing.update(healing)
            self._install_view()
        return readmitted

    def resynced(self, ranks: List[int]) -> None:
        self._resyncing.difference_update(ranks)
        self._publish()

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
        self._leases[self.lock_key(handle)] = (handle.ctx.rank, ticket, False)

    def lease_commit(self, handle) -> None:
        """``handle``'s release commits: an exclusion now leaves the lease
        alone, a declaration still revokes it (recovery ends the handoff)."""
        key = self.lock_key(handle)
        holder, ticket, _committed = self._leases[key]
        self._leases[key] = (holder, ticket, True)

    def lease_release(self, handle) -> None:
        key = self.lock_key(handle)
        if self.lease_holder(key) == handle.ctx.rank:
            del self._leases[key]

    def lease_holder(self, key: Tuple[str, str, int]) -> Optional[int]:
        return self._leases.get(key, (None,))[0]

    def fence_token(self, key: Tuple[str, str, int]) -> int:
        """Monotonic per-lock fencing counter; bumped at every revocation.

        A holder that snapshots this at grant time and finds it changed at
        release time lost its lease while it held the lock (crash recovery
        or partition exclusion regenerated the lock for the survivors) —
        its release must not touch the lock protocol again.
        """
        return self._fence_tokens.get(key, 0)

    def record_token_regen(self, key, payload: Dict[str, Any]) -> None:
        """Remember a token lock's ``view_change`` so a rank excluded at
        this point can replay it when it rejoins (it never receives the
        original sends)."""
        self._token_regen[key] = (self.epoch, dict(payload))

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


class MembershipService(MembershipCore):
    """The shell: per-runtime processes feeding :class:`MembershipCore`."""

    def __init__(self, runtime: "ClusterRuntime"):
        self.runtime = runtime
        self.env = runtime.env
        self.fabric = runtime.fabric
        monitor = runtime.monitor
        plan = runtime.params.faults
        super().__init__(
            runtime.topology,
            plan,
            emit=(
                partial(monitor.emit, actor=MEMBERSHIP_ACTOR)
                if monitor is not None
                else lambda kind, **fields: None
            ),
            kill=self._fail_stop,
            issued=lambda rank: CountVector(runtime.armcis[rank].op_init),
            recover=lambda key, rank, transient: self.env.process(
                self._recover_lock(key, rank, transient),
                name=f"recover:{key[0]}:{key[1]}:{rank}",
            ),
            publish=self._announce,
        )
        self._seed = plan.seed if plan.seed is not None else runtime.params.seed
        #: Nodes whose NIC co-processor was killed (NIC-only or machine).
        self._dead_nics: Set[int] = set()
        #: Process ownership: process -> the rank whose death cancels it.
        self._owner_of: Dict[Process, int] = {}
        #: Tests patch this off to demonstrate the sanitizer catching an
        #: un-resynchronized rejoin (stale token survives the heal).
        self.resync_enabled = True
        self.freeze_log: List[Dict[str, Any]] = []
        self.heal_log: List[Dict[str, Any]] = []
        #: Recovery trail (chaosbench reporting + tests).
        self.recovery_log: List[Dict[str, Any]] = []
        #: Events a host's NIC barrier waits on while in flight; the next
        #: view change succeeds them (the host removes its own).
        self.view_waiters: List[Any] = []

    def __repr__(self) -> str:
        return (
            f"<MembershipService epoch={self.epoch} "
            f"alive={self.topology.nprocs - len(self.declared_at)} "
            f"dead={list(self.dead_ranks())}>"
        )

    # -- wiring ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap process creation and start executors/heartbeats/detector."""
        env = self.env
        # Chain through the environment's factory hook (Environment uses
        # __slots__); an already-installed factory (e.g. the RMCSan
        # monitor's actor inheritance) keeps working underneath ours.
        base_factory = env.process_factory or partial(Process, env)

        def process_with_ownership(generator, name=None):
            owner = self._owner_of.get(env.active_process)
            proc = base_factory(generator, name=name)
            if owner is not None and owner not in self.declared_at:
                self.adopt(proc, owner)
            return proc

        env.process_factory = process_with_ownership
        for crash in self.plan.crashes:
            env.process(self._crash_executor(crash), name=f"crash@{crash.at_us}")
        for part in self.plan.partitions:
            env.process(self._window_end(part), name=f"heal@{part.until_us}")
        for pause in self.plan.pauses:
            name = f"resume[{pause.rank}]@{pause.until_us}"
            env.process(self._window_end(pause), name=name)
        for rank in range(self.topology.nprocs):
            proc = env.process(self._heartbeat_loop(rank), name=f"hb[{rank}]")
            self.adopt(proc, rank)
        env.process(self._detector_loop(), name="membership.detector")

    def adopt(self, proc: Process, rank: int) -> None:
        """Record that ``proc`` belongs to ``rank`` (killed with it)."""
        self._owner_of[proc] = rank

    def quorum_ok(self, rank: int) -> bool:
        """May ``rank`` run sync operations right now (quorum side, not
        paused)?  Always true without transient windows."""
        return not self.attributable(rank, self.env.now)

    def suspect(self, endpoint: Endpoint, reason: str = "suspected") -> None:
        """The reliable transport's report of a silent peer, now."""
        self.suspected(endpoint, self.env.now, reason)

    # -- the core's effects -----------------------------------------------------

    def _announce(self) -> None:
        """Let the rest of the system observe the installed view, after
        finishing NIC barrier epochs that committed on *some* engine.

        A crashed NIC can wedge peers in the inter-NIC stage-3 barrier
        after another engine already released its hosts.  Released hosts
        have moved on, so the wedged hosts must not degrade to the
        survivor-view exchange (they would wait forever for the released
        ones).  Commitment on any engine implies every engine entered
        stage 3 — all remote operations drained — so completing the epoch
        for every live host is safe; with no commitment anywhere, all
        hosts degrade together and stay consistent.  This comes *before*
        hosts observe the view change: a host woken by its view-change
        event must already see its release fired if the epoch
        committed anywhere.
        """
        engines = self.fabric.nic_engines or {}
        committed = set().union(*(e.committed for e in engines.values()))
        for epoch in sorted(committed):
            for engine in engines.values():
                engine.force_release(epoch)
        for event in self.view_waiters:
            if not event.triggered:
                event.succeed()

    def _fail_stop(self, rank: int) -> None:
        """Silence a crashed user process: cancel its generators, cut it off
        the fabric and its transport."""
        self.fabric.mark_dead(("mp", rank))
        if self.fabric.reliable is not None:
            # Fail-stop includes the rank's sender-side transport state:
            # no retransmissions from beyond the grave (frames already on
            # the wire may still land; write-off accounting is monotone).
            self.fabric.reliable.abandon_sender(rank)
        for proc, owner in list(self._owner_of.items()):
            if owner == rank and proc.is_alive and proc is not self.env.active_process:
                proc.kill()

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

    # -- crash execution -------------------------------------------------------

    def _crash_executor(self, crash):
        yield crash.at_us
        if crash.rank is not None:
            self.crash(crash.rank, self.env.now)
        elif crash.node is not None:
            self._kill_node(crash.node)
        else:
            self._kill_nic(crash.nic)

    def _kill_node(self, node: int) -> None:
        """Machine crash: the server thread and every hosted rank die.

        Idempotent: a node crash scheduled after one of its ranks (or its
        NIC, or the whole node) already died simply kills whatever is
        still running — ``crash`` and ``_kill_nic`` each no-op on an
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
            self.crash(rank, self.env.now)

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

    # -- detection -------------------------------------------------------------

    def _heartbeat_loop(self, rank: int):
        rng = random.Random(f"membership:{self._seed}:{rank}")
        while not self.loops_done(self.env.now):
            yield HEARTBEAT_US * (0.75 + 0.5 * rng.random())
            if rank in self.declared_at:
                return
            self.heard(rank, self.env.now)

    def _detector_loop(self):
        while not self.loops_done(self.env.now):
            yield CHECK_US
            self.detect(self.env.now)

    # -- window end and rejoin ----------------------------------------------------

    def _window_end(self, window):
        """Runs when a fault window closes — a partition's heal or a process
        stall's resume — and resynchronizes every rank the core readmits
        from the majority before the freeze gate releases it.

        Token locks regenerated while a rank was away are resynchronized
        by replaying the recorded ``view_change`` into the rank's own
        mailbox, intra-node FIFO ahead of any acquire it could issue once
        unfrozen, so a stale token can never grant before the daemon
        learns the new epoch floor.
        """
        yield window.until_us
        now = self.env.now
        part = window if isinstance(window, Partition) else None
        scope = range(self.topology.nprocs) if part else (window.rank,)
        readmitted = self.end_window(scope, now, part)
        for r, excluded_at, exc_epoch in readmitted:
            for key in sorted(self._token_regen) if self.resync_enabled else ():
                regen_epoch, payload = self._token_regen[key]
                if regen_epoch < exc_epoch:
                    continue  # regenerated before this rank left: already seen
                handle = self._locks[key]["handles"].get(r)
                if handle is not None:
                    yield from handle.replay_view_change(self, payload)
            self._emit(
                "proc_rejoined",
                rank=r,
                epoch=self.epoch,
                rejoined_at=self.env.now,
                excluded_for_us=self.env.now - excluded_at,
                resynced=self.resync_enabled,
            )
        rejoined = [r for r, _at, _epoch in readmitted]
        if rejoined:
            self.resynced(rejoined)
        if part is not None:
            self.heal_log.append(
                {
                    "nodes": list(part.nodes),
                    "from_us": part.from_us,
                    "healed_at_us": now,
                    "rejoined": rejoined,
                    "epoch": self.epoch,
                }
            )

    # -- sync freeze gate ---------------------------------------------------------

    def freeze_gate(self, rank: int):
        """Block ``rank`` while it lacks quorum or is mid-rejoin.

        Sync operations (locks, barriers, fences) call this on entry: a
        minority-side or stalled rank queues here — it does *not* fail —
        and proceeds once it is back in a majority view and resynced.
        No-op (and never yields) when the plan has no transient faults.
        """
        if not self.transient:
            return

        def clear() -> bool:
            held = rank in self._excluded or rank in self._resyncing
            return self.quorum_ok(rank) and not held

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
        mine = [s for s in self.plan.pauses if s.rank == rank]
        ends = [w.until_us for w in (*self.plan.partitions, *mine) if w.covers(now)]
        return max(min(ends) - now, MEMBERSHIP_POLL_US) if ends else MEMBERSHIP_POLL_US

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
            "dead": list(self.dead_ranks()),
            "detections": detections,
            "recoveries": list(self.recovery_log),
        }
        if self.transient:
            out["excluded"] = sorted(self._excluded)
            out["rejoins"] = [
                {"rank": rank, "rejoined_at_us": self.rejoined_at[rank]}
                for rank in sorted(self.rejoined_at)
            ]
            out["freezes"] = list(self.freeze_log)
            out["heals"] = list(self.heal_log)
            out["suspicions_discarded"] = self.suspicions_discarded
        return out
