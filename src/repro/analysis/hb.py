"""Offline happens-before analysis of a monitored run (the RMCSan engine).

The engine replays the structured event stream collected by
:class:`~repro.analysis.monitor.SyncMonitor` — the emission order is a
valid observation order because the simulation kernel is sequential — and
maintains one vector clock per *actor* (user process ``p{rank}`` or server
thread ``s{node}``).

Happens-before edges (see ``docs/analysis.md`` for the full model):

* **program order** — consecutive events of one actor;
* **issue -> apply** — a server joins the issuing client's clock when it
  starts applying a remote put/get/acc/rmw;
* **apply -> completion** — a blocking client (get/rmw reply) joins the
  server's clock at apply time;
* **fence** — ``fence_done`` joins the apply-time clocks of every covered
  operation (all ops the actor issued to that node);
* **barrier** — ``barrier_exit`` joins every participant's enter clock and
  the apply-time clocks of their pre-enter outstanding operations;
* **collectives** — an exit joins every recorded enter of the same epoch
  (only all-to-all collectives are instrumented);
* **lock release -> acquire** — an acquire joins the clock stored by the
  previous release of the same lock;
* **crash declaration** — ``proc_crashed`` joins the dead rank's clock
  into the membership actor's (crash-stop: all it did precedes its
  declaration), and a ``barrier_exit`` reporting ``view_epoch`` joins the
  membership clock at that view's ``view_change``;
* **sync cells** — reads of release/acquire cells (lock words, ``op_done``
  and notify counters) join the clock of their last write;
* **NIC offload** — a ``nic_combine`` joins what the NIC folded in (the
  host's doorbell snapshot, the sending NIC's clock at frame injection,
  or the server's clock at the mirrored ``op_done`` bump), and a
  ``nic_release`` must *dominate every rank's doorbell* of its epoch —
  the proof that the NIC protocol cannot release a host early; the host
  joins the release clock at ``barrier_exit``.

Checks: data races on plain cells (conflicting, HB-unordered, not both
atomic), fence-counting violations (``op_done`` over/under-credit, fence
or barrier completing with un-applied covered operations), lock safety
(two holders, unlock-without-hold, non-FIFO ticket grants) and deadlock
(wait-for-graph cycle over locks still pending at end of trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["Violation", "SanReport", "HBAnalyzer", "CREDIT_OPS"]

#: Remote operations whose application bumps the target's ``op_done``
#: counter (the paper's fence-counted, store-class operations).
CREDIT_OPS = ("put", "acc")

#: Cap on reported violations per category (the counters keep exact totals).
_REPORT_CAP = 50


@dataclass
class Violation:
    """One detected protocol violation."""

    kind: str  # data-race | fence | barrier | lock | deadlock
    time: float
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        return f"[{self.kind}] t={self.time:.3f}us: {self.message}"


@dataclass
class SanReport:
    """Outcome of one happens-before analysis."""

    violations: List[Violation] = field(default_factory=list)
    events_analyzed: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    suppressed: int = 0

    def ok(self) -> bool:
        return not self.violations and not self.suppressed

    def add(self, violation: Violation) -> None:
        self.counts[violation.kind] = self.counts.get(violation.kind, 0) + 1
        if self.counts[violation.kind] <= _REPORT_CAP:
            self.violations.append(violation)
        else:
            self.suppressed += 1

    def render(self) -> str:
        lines = [
            f"RMCSan: {self.events_analyzed} events analyzed, "
            f"{sum(self.counts.values())} violation(s)"
        ]
        for v in self.violations:
            lines.append("  " + v.render())
        if self.suppressed:
            lines.append(f"  ... {self.suppressed} further violation(s) suppressed")
        if self.ok():
            lines.append("  no violations: run is race-free and protocol-clean")
        return "\n".join(lines)


class _CellState:
    """FastTrack-style per-cell access history (epochs, not full clocks)."""

    __slots__ = ("write", "reads")

    def __init__(self):
        self.write: Optional[Tuple[str, int, str]] = None  # actor, tick, mode
        self.reads: Dict[str, Tuple[int, str]] = {}


class _OpRecord:
    """Lifecycle of one remote operation."""

    __slots__ = (
        "actor",
        "op",
        "node",
        "dst_rank",
        "applied",
        "issue_snap",
        "apply_snap",
        "issue_time",
    )

    def __init__(self, actor: str, op: str, node: int, dst_rank: int):
        self.actor = actor
        self.op = op
        self.node = node
        self.dst_rank = dst_rank
        self.applied = False
        self.issue_snap: Optional[Dict[str, int]] = None
        self.apply_snap: Optional[Dict[str, int]] = None
        self.issue_time = 0.0


class HBAnalyzer:
    """Replays a protocol-event stream and reports violations."""

    def __init__(self, sync_cells: Optional[Set[Tuple[str, int]]] = None):
        #: Cells with release/acquire semantics (from the monitor).  Ranged
        #: accesses that overlap these cells (e.g. MCS pair atomics through
        #: ``write_many``) are given sync semantics per cell even though the
        #: event itself was emitted in plain/atomic mode.
        self._sync_cells = sync_cells or set()
        self._clocks: Dict[str, Dict[str, int]] = {}
        self._cells: Dict[Tuple[str, int], _CellState] = {}
        self._sync_writes: Dict[Tuple[str, int], Dict[str, int]] = {}
        self._ops: Dict[int, _OpRecord] = {}
        self._issued_to: Dict[Tuple[str, int], List[int]] = {}
        self._outstanding: Dict[str, Set[int]] = {}
        self._credit_applies: Dict[int, int] = {}
        self._op_done_bumps: Dict[int, int] = {}
        self._barrier_enters: Dict[int, Dict[str, Dict[str, int]]] = {}
        self._barrier_pending: Dict[int, Dict[str, List[int]]] = {}
        self._coll_enters: Dict[Tuple[str, int], Dict[str, Dict[str, int]]] = {}
        self._lock_holders: Dict[str, Set[str]] = {}
        self._lock_clock: Dict[str, Dict[str, int]] = {}
        self._lock_ticket: Dict[str, int] = {}
        self._lock_pending: Dict[Tuple[str, str], float] = {}
        # NIC-offload state (populated only by NIC-mode barriers).
        self._nic_doorbells: Dict[int, Dict[int, Dict[str, int]]] = {}
        self._nic_expected: Dict[int, int] = {}
        self._nic_frames: Dict[Tuple[int, str, int], Dict[str, int]] = {}
        self._op_done_clock: Dict[Tuple[int, int], Dict[str, int]] = {}
        self._nic_release_snap: Dict[Tuple[int, int], Dict[str, int]] = {}
        self._nic_commits: Dict[int, Dict[str, int]] = {}
        # Crash-stop state (populated only by membership-service events).
        self._dead_actors: Set[str] = set()
        self._crashed_at: Dict[str, float] = {}
        self._dead_nodes: Set[int] = set()
        # Barrier releases owing un-applied ops, judged at end of trace:
        # the issuer's crash is *declared* (and so enters the event
        # stream) only after a detection delay, so an exit that precedes
        # the declaration must not flag ops the crash wrote off.
        self._pending_release_viols: List[Tuple[float, int, str, int]] = []
        self._written_off_ops: Set[int] = set()
        self._lock_revoked: Dict[str, Set[int]] = {}
        self._view_epoch = 0
        #: view epoch -> the membership actor's clock when it installed
        #: that view (joined by barrier exits that report ``view_epoch``).
        self._view_clocks: Dict[int, Dict[str, int]] = {}
        # Partition state (populated only by transient-fault events).
        #: Actors currently excluded from the membership view.
        self._excluded_actors: Set[str] = set()
        #: actor -> [start, end] exclusion windows (end None while open):
        #: used to excuse barrier releases owing ops whose endpoint was
        #: out of the view at release time (the resilient barrier wrote
        #: them off; the suspended frames apply at the heal).
        self._excluded_spans: Dict[str, List[List[Optional[float]]]] = {}
        #: lock -> actors whose lease was revoked *live* (partition
        #: exclusion): any lock action by them before rejoin is the
        #: split-brain the fencing tokens exist to prevent.
        self._fenced_stale: Dict[str, Set[str]] = {}
        #: cell -> excluded actor that last wrote it from the minority
        #: side; a conflicting majority access makes the race split-brain.
        self._minority_cells: Dict[Tuple[str, int], str] = {}
        self.report = SanReport()

    # -- vector clock helpers ------------------------------------------------

    def _clock(self, actor: str) -> Dict[str, int]:
        clock = self._clocks.get(actor)
        if clock is None:
            clock = {actor: 0}
            self._clocks[actor] = clock
        return clock

    def _tick(self, actor: str) -> int:
        clock = self._clock(actor)
        clock[actor] = clock.get(actor, 0) + 1
        return clock[actor]

    def _join(self, actor: str, snapshot: Optional[Dict[str, int]]) -> None:
        if not snapshot:
            return
        clock = self._clock(actor)
        for key, tick in snapshot.items():
            if clock.get(key, 0) < tick:
                clock[key] = tick

    def _hb(self, src_actor: str, src_tick: int, dst_actor: str) -> bool:
        """Did (src_actor @ src_tick) happen before dst_actor's current point?"""
        if src_actor == dst_actor:
            return True
        return self._clock(dst_actor).get(src_actor, 0) >= src_tick

    # -- main entry ----------------------------------------------------------

    def analyze(self, events: Sequence[Any]) -> SanReport:
        for event in events:
            self._step(event)
        self._finish(events[-1].time if events else 0.0)
        self.report.events_analyzed = len(events)
        return self.report

    def _step(self, ev) -> None:
        actor, data, kind = ev.actor, ev.data, ev.kind
        tick = self._tick(actor)
        handler = getattr(self, f"_on_{kind}", None)
        if handler is not None:
            handler(ev, actor, tick, data)

    # -- memory accesses -----------------------------------------------------

    def _on_mem_read(self, ev, actor, tick, data) -> None:
        self._access(ev, actor, tick, data, is_write=False)

    def _on_mem_write(self, ev, actor, tick, data) -> None:
        self._access(ev, actor, tick, data, is_write=True)

    def _access(self, ev, actor, tick, data, is_write: bool) -> None:
        region, base, count, mode = (
            data["region"],
            data["addr"],
            data["n"],
            data["mode"],
        )
        for addr in range(base, base + count):
            key = (region, addr)
            if mode == "sync" or key in self._sync_cells:
                if is_write:
                    self._sync_writes[key] = dict(self._clock(actor))
                else:
                    self._join(actor, self._sync_writes.get(key))
                continue
            cell = self._cells.get(key)
            if cell is None:
                cell = _CellState()
                self._cells[key] = cell
            prev = cell.write
            if prev is not None:
                p_actor, p_tick, p_mode = prev
                both_atomic = p_mode == "atomic" and mode == "atomic"
                if (
                    p_actor != actor
                    and not both_atomic
                    and not self._hb(p_actor, p_tick, actor)
                ):
                    self._race(ev, key, actor, mode, p_actor, p_mode, is_write)
            if is_write:
                for r_actor, (r_tick, r_mode) in cell.reads.items():
                    both_atomic = r_mode == "atomic" and mode == "atomic"
                    if (
                        r_actor != actor
                        and not both_atomic
                        and not self._hb(r_actor, r_tick, actor)
                    ):
                        self._race(ev, key, actor, mode, r_actor, r_mode, True)
                cell.write = (actor, tick, mode)
                cell.reads.clear()
                if self._excluded_actors and actor in self._excluded_actors:
                    self._minority_cells[key] = actor
                elif self._minority_cells:
                    self._minority_cells.pop(key, None)
            else:
                cell.reads[actor] = (tick, mode)

    def _race(self, ev, key, actor, mode, other, other_mode, is_write) -> None:
        access = "write" if is_write else "read"
        # A race with one foot on the minority side of a partition (the
        # accessor is excluded right now, or the earlier write was made
        # from the minority and survived the heal) is split-brain, not a
        # garden-variety data race: quorum freezing should have made it
        # impossible.
        split_brain = (
            actor in self._excluded_actors
            or other in self._excluded_actors
            or self._minority_cells.get(key) == other
        )
        self.report.add(
            Violation(
                kind="split-brain" if split_brain else "data-race",
                time=ev.time,
                message=(
                    f"{actor} {access}s {key[0]}[{key[1]}] ({mode}) unordered "
                    f"with earlier access by {other} ({other_mode})"
                    + (" across a partition" if split_brain else "")
                ),
                details={"region": key[0], "addr": key[1], "actors": [other, actor]},
            )
        )

    # -- remote operation lifecycle ------------------------------------------

    def _on_issue(self, ev, actor, tick, data) -> None:
        record = _OpRecord(actor, data["op"], data["node"], data["dst_rank"])
        record.issue_snap = dict(self._clock(actor))
        record.issue_time = ev.time
        self._ops[data["op_id"]] = record
        self._issued_to.setdefault((actor, data["node"]), []).append(data["op_id"])
        self._outstanding.setdefault(actor, set()).add(data["op_id"])
        if data["node"] in self._dead_nodes:
            # Issued into a declared machine crash: the fabric drops it and
            # the degraded fence/barrier write it off.
            record.applied = True
            record.apply_snap = dict(self._clock(actor))
            self._written_off_ops.add(data["op_id"])
            self._outstanding[actor].discard(data["op_id"])

    def _on_apply(self, ev, actor, tick, data) -> None:
        record = self._ops.get(data["op_id"])
        if record is None:
            return
        self._join(actor, record.issue_snap)
        if record.op in CREDIT_OPS:
            # Charge the credit ledger at apply *start*: the server bumps
            # op_done from inside the handler, i.e. between this event and
            # apply_done.
            rank = record.dst_rank
            self._credit_applies[rank] = self._credit_applies.get(rank, 0) + 1

    def _on_apply_done(self, ev, actor, tick, data) -> None:
        record = self._ops.get(data["op_id"])
        if record is None:
            return
        record.applied = True
        record.apply_snap = dict(self._clock(actor))
        self._outstanding.get(record.actor, set()).discard(data["op_id"])
        # A straggler that lands after being written off was applied after
        # all: it no longer counts toward the dead-credit barrier check.
        self._written_off_ops.discard(data["op_id"])

    def _on_complete(self, ev, actor, tick, data) -> None:
        record = self._ops.get(data["op_id"])
        if record is not None:
            self._join(actor, record.apply_snap)

    # -- fence counting ------------------------------------------------------

    def _on_op_done(self, ev, actor, tick, data) -> None:
        rank = data["rank"]
        # Exact-value snapshot for the NIC mirror: a NIC observing mirror
        # value v joins the server's clock at the bump that produced v.
        self._op_done_clock[(rank, data["value"])] = dict(self._clock(actor))
        self._op_done_bumps[rank] = self._op_done_bumps.get(rank, 0) + 1
        if self._op_done_bumps[rank] > self._credit_applies.get(rank, 0):
            self.report.add(
                Violation(
                    kind="fence",
                    time=ev.time,
                    message=(
                        f"op_done credited for rank {rank} without a matching "
                        f"applied operation ({self._op_done_bumps[rank]} credits "
                        f"vs {self._credit_applies.get(rank, 0)} applies)"
                    ),
                    details={"rank": rank},
                )
            )

    def _on_fence_done(self, ev, actor, tick, data) -> None:
        covered = self._issued_to.pop((actor, data["node"]), [])
        degraded = bool(data.get("degraded"))
        for op_id in covered:
            record = self._ops[op_id]
            if not record.applied:
                if degraded:
                    # Degraded fence to a crashed machine: the write-off is
                    # explicit in the protocol, not a lost completion.
                    continue
                self.report.add(
                    Violation(
                        kind="fence",
                        time=ev.time,
                        message=(
                            f"fence by {actor} to node {data['node']} completed "
                            f"with un-applied {record.op} (op {op_id})"
                        ),
                        details={"op_id": op_id, "node": data["node"]},
                    )
                )
            else:
                self._join(actor, record.apply_snap)

    # -- barriers ------------------------------------------------------------

    def _on_barrier_enter(self, ev, actor, tick, data) -> None:
        epoch = data["epoch"]
        self._barrier_enters.setdefault(epoch, {})[actor] = dict(self._clock(actor))
        pending = sorted(self._outstanding.get(actor, ()))
        self._barrier_pending.setdefault(epoch, {})[actor] = pending

    def _on_barrier_exit(self, ev, actor, tick, data) -> None:
        epoch = data["epoch"]
        nic_epoch = data.get("nic_epoch")
        if nic_epoch is not None and actor.startswith("p"):
            # NIC-offloaded barrier: the host's release is the NIC's DMA
            # write-back; join the NIC clock at release so everything the
            # NIC observed (mirrored op_done bumps included) orders before
            # the host's post-barrier accesses.
            self._join(
                actor, self._nic_release_snap.get((nic_epoch, int(actor[1:])))
            )
        for snapshot in self._barrier_enters.get(epoch, {}).values():
            self._join(actor, snapshot)
        for issuer, op_ids in self._barrier_pending.get(epoch, {}).items():
            for op_id in op_ids:
                record = self._ops[op_id]
                if not record.applied:
                    # Deferred verdict: exonerated at end of trace if the
                    # issuer turns out to have crashed before this release
                    # (the declaration event arrives later in the stream,
                    # but the write-off is effective from the crash).
                    self._pending_release_viols.append(
                        (ev.time, epoch, actor, op_id)
                    )
                else:
                    self._join(actor, record.apply_snap)
        # A survivor barrier computed over view ``view_epoch`` saw every
        # death declared up to it: order what the dead did before the exit.
        self._join(actor, self._view_clocks.get(data.get("view_epoch")))
        self._dead_credit_check(ev, actor, epoch, data)

    def _dead_credit_check(self, ev, actor, epoch, data) -> None:
        """Flag a barrier release still counting a dead rank's credits.

        Operations issued by (or into) crashed processes that the target
        server never applied must be *written off explicitly*: a resilient
        barrier reports the write-off in its exit event.  An exit that owes
        such credits without reporting at least that many written off means
        the barrier's accounting silently counted a dead rank's operations.
        """
        if not self._written_off_ops or not actor.startswith("p"):
            return
        me = int(actor[1:])
        owed = sum(
            1 for op_id in self._written_off_ops
            if self._ops[op_id].dst_rank == me
        )
        reported = data.get("written_off")
        if owed and (reported is None or reported < owed):
            self.report.add(
                Violation(
                    kind="barrier",
                    time=ev.time,
                    message=(
                        f"barrier epoch {epoch} released {actor} while still "
                        f"counting {owed} credit(s) from crashed rank(s) "
                        f"(written off: {reported if reported is not None else 0})"
                    ),
                    details={"epoch": epoch, "owed": owed, "reported": reported},
                )
            )

    # -- crash-stop membership events ------------------------------------------

    def _on_proc_crashed(self, ev, actor, tick, data) -> None:
        rank = data["rank"]
        dead_actor = f"p{rank}"
        # Crash-stop: every action of the dead rank precedes its
        # declaration.  (Never at ``proc_excluded``: an excluded rank is
        # alive and may still act.)
        self._join(actor, self._clock(dead_actor))
        self._dead_actors.add(dead_actor)
        self._crashed_at[dead_actor] = data.get("crashed_at", ev.time)
        if data.get("node_crashed"):
            self._dead_nodes.add(data["node"])
        # Write off the dead rank's in-flight operations — and, after a
        # machine crash, survivors' operations into the dead server — so
        # fence/barrier completion no longer owes them.  The write-off
        # joins the membership service's clock (declaration ordering).
        for op_id, record in self._ops.items():
            if record.applied:
                continue
            into_dead_node = (
                data.get("node_crashed") and record.node == data["node"]
            )
            if record.actor == dead_actor or into_dead_node:
                record.applied = True
                record.apply_snap = dict(self._clock(actor))
                self._written_off_ops.add(op_id)
                self._outstanding.get(record.actor, set()).discard(op_id)
        # A dead rank's pending lock requests cannot deadlock anyone.
        for pending_key in list(self._lock_pending):
            if pending_key[0] == dead_actor:
                del self._lock_pending[pending_key]

    def _on_view_change(self, ev, actor, tick, data) -> None:
        self._view_epoch = data["epoch"]
        self._view_clocks[data["epoch"]] = dict(self._clock(actor))

    def _on_proc_excluded(self, ev, actor, tick, data) -> None:
        excluded = f"p{data['rank']}"
        self._excluded_actors.add(excluded)
        self._excluded_spans.setdefault(excluded, []).append([ev.time, None])

    def _on_proc_rejoined(self, ev, actor, tick, data) -> None:
        rejoined = f"p{data['rank']}"
        self._excluded_actors.discard(rejoined)
        spans = self._excluded_spans.get(rejoined)
        if spans and spans[-1][1] is None:
            spans[-1][1] = ev.time
        for stale in self._fenced_stale.values():
            stale.discard(rejoined)
        if not data.get("resynced", True):
            self.report.add(
                Violation(
                    kind="split-brain",
                    time=ev.time,
                    message=(
                        f"{rejoined} rejoined the view (epoch "
                        f"{data.get('epoch')}) without state "
                        f"resynchronization: stale tokens and credit "
                        f"baselines survive the heal"
                    ),
                    details={"rank": data["rank"], "epoch": data.get("epoch")},
                )
            )

    def _on_lock_fence_rejected(self, ev, actor, tick, data) -> None:
        # The fencing token did its job: the stale holder's release was
        # rejected without touching the protocol.  Nothing stale survives.
        stale = self._fenced_stale.get(data["lock"])
        if stale is not None:
            stale.discard(actor)

    def _on_lease_revoked(self, ev, actor, tick, data) -> None:
        lock = data["lock"]
        ticket = data.get("ticket")
        if ticket is not None:
            self._lock_revoked.setdefault(lock, set()).add(ticket)
        rank = data.get("rank")
        if rank is None:
            return
        dead_actor = f"p{rank}"
        holders = self._lock_holders.setdefault(lock, set())
        if dead_actor in holders:
            # Revocation is the crash-time release: the successor's grant
            # joins the membership service's clock at revocation.
            holders.discard(dead_actor)
            self._lock_clock[lock] = dict(self._clock(actor))
        if data.get("live"):
            # Live (partition) revocation: the holder is alive on the
            # minority side and still believes it holds the lock.  Any
            # protocol action it takes on this lock before rejoining is
            # split-brain (see _on_lock_acq/_on_lock_rel).
            self._fenced_stale.setdefault(lock, set()).add(dead_actor)
        self._lock_pending.pop((dead_actor, lock), None)

    # -- message-passing collectives -----------------------------------------

    def _on_coll_enter(self, ev, actor, tick, data) -> None:
        key = (data["coll"], data["epoch"])
        self._coll_enters.setdefault(key, {})[actor] = dict(self._clock(actor))

    def _on_coll_exit(self, ev, actor, tick, data) -> None:
        key = (data["coll"], data["epoch"])
        for snapshot in self._coll_enters.get(key, {}).values():
            self._join(actor, snapshot)

    # -- NIC-offloaded barrier -----------------------------------------------

    def _on_nic_doorbell(self, ev, actor, tick, data) -> None:
        epoch = data["epoch"]
        self._nic_doorbells.setdefault(epoch, {})[data["rank"]] = dict(
            self._clock(actor)
        )
        self._nic_expected[epoch] = data["n"]

    def _on_nic_combine(self, ev, actor, tick, data) -> None:
        epoch, src = data["epoch"], data["src"]
        if src == "doorbell":
            # The NIC folded a hosted rank's doorbell row.
            self._join(
                actor, self._nic_doorbells.get(epoch, {}).get(data["rank"])
            )
        elif src == "send":
            # Frame injection: snapshot the sender NIC's clock; the
            # receiving NIC joins it.  Emission order is observation
            # order, so the snapshot exists before the matching recv.
            key = (epoch, data["phase"], data["node"])
            self._nic_frames[key] = dict(self._clock(actor))
        elif src == "recv":
            key = (epoch, data["phase"], data["peer"])
            self._join(actor, self._nic_frames.get(key))
        elif src == "mirror":
            # Stage 2 satisfied against the op_done mirror: join the
            # server's clock at the exact bump the mirror carries.
            self._join(
                actor, self._op_done_clock.get((data["rank"], data["value"]))
            )

    def _on_nic_commit(self, ev, actor, tick, data) -> None:
        # An engine finished stage 3: its clock dominates every doorbell.
        # Recorded as the evidence that sanctions *forced* releases — when
        # membership recovery completes a committed epoch on behalf of an
        # engine wedged (or killed) mid-stage-3 by a crashed peer NIC.
        self._nic_commits[data["epoch"]] = dict(self._clock(actor))

    def _on_nic_release(self, ev, actor, tick, data) -> None:
        epoch, rank = data["epoch"], data["rank"]
        if data.get("forced"):
            # Recovery path: inherit the committing engine's clock so the
            # dominance check below holds exactly when the epoch really
            # committed somewhere — a forced release without commitment
            # evidence still flags as early.
            self._join(actor, self._nic_commits.get(epoch))
        clock = self._clock(actor)
        self._nic_release_snap[(epoch, rank)] = dict(clock)
        # No early release: the NIC may only write the completion back
        # after its clock dominates every participating rank's doorbell —
        # i.e. every op_init row of the epoch flowed into the totals this
        # release is based on.
        doorbells = self._nic_doorbells.get(epoch, {})
        for peer in range(self._nic_expected.get(epoch, data.get("n", 0))):
            snap = doorbells.get(peer)
            if snap is None or any(
                clock.get(k, 0) < t for k, t in snap.items()
            ):
                self.report.add(
                    Violation(
                        kind="barrier",
                        time=ev.time,
                        message=(
                            f"nic early release: epoch {epoch} release of "
                            f"rank {rank} on {actor} does not happen-after "
                            f"rank {peer}'s doorbell"
                        ),
                        details={"epoch": epoch, "rank": rank, "peer": peer},
                    )
                )

    # -- locks ---------------------------------------------------------------

    def _on_lock_req(self, ev, actor, tick, data) -> None:
        self._lock_pending[(actor, data["lock"])] = ev.time

    def _on_lock_acq(self, ev, actor, tick, data) -> None:
        lock = data["lock"]
        self._lock_pending.pop((actor, lock), None)
        if actor in self._fenced_stale.get(lock, ()):
            self.report.add(
                Violation(
                    kind="split-brain",
                    time=ev.time,
                    message=(
                        f"{actor} re-granted lock {lock} on a fenced "
                        f"(partition-revoked) lease: two sides of the "
                        f"partition hold the lock"
                    ),
                    details={"lock": lock, "actor": actor},
                )
            )
        if actor in self._dead_actors:
            self.report.add(
                Violation(
                    kind="lock",
                    time=ev.time,
                    message=(
                        f"lock {lock} granted to {actor} after it was "
                        f"declared crashed (view epoch {self._view_epoch})"
                    ),
                    details={"lock": lock, "actor": actor},
                )
            )
        holders = self._lock_holders.setdefault(lock, set())
        if holders:
            self.report.add(
                Violation(
                    kind="lock",
                    time=ev.time,
                    message=(
                        f"{actor} granted lock {lock} while held by "
                        f"{', '.join(sorted(holders))}"
                    ),
                    details={"lock": lock, "holders": sorted(holders)},
                )
            )
        holders.add(actor)
        ticket = data.get("ticket")
        if ticket is not None:
            expected = self._lock_ticket.get(lock, -1) + 1
            revoked = self._lock_revoked.get(lock, ())
            while expected in revoked:
                # Crash recovery spliced this ticket out of the queue.
                expected += 1
            if ticket != expected:
                self.report.add(
                    Violation(
                        kind="lock",
                        time=ev.time,
                        message=(
                            f"non-FIFO grant on lock {lock}: ticket {ticket} "
                            f"granted, expected {expected}"
                        ),
                        details={"lock": lock, "ticket": ticket},
                    )
                )
            self._lock_ticket[lock] = max(self._lock_ticket.get(lock, -1), ticket)
        self._join(actor, self._lock_clock.get(lock))

    def _on_lock_rel(self, ev, actor, tick, data) -> None:
        lock = data["lock"]
        holders = self._lock_holders.setdefault(lock, set())
        if actor in self._fenced_stale.get(lock, ()):
            self.report.add(
                Violation(
                    kind="split-brain",
                    time=ev.time,
                    message=(
                        f"{actor} released lock {lock} on a fenced "
                        f"(partition-revoked) lease: the fencing-token "
                        f"check should have rejected this release"
                    ),
                    details={"lock": lock, "actor": actor},
                )
            )
            self._fenced_stale[lock].discard(actor)
            return
        if actor not in holders:
            self.report.add(
                Violation(
                    kind="lock",
                    time=ev.time,
                    message=f"{actor} released lock {lock} without holding it",
                    details={"lock": lock},
                )
            )
        holders.discard(actor)
        self._lock_clock[lock] = dict(self._clock(actor))

    # -- end-of-trace checks -------------------------------------------------

    def _excluded_while_in_flight(
        self, actor_name: str, issued: float, released: float
    ) -> bool:
        """Did ``actor_name``'s view exclusion overlap ``[issued, released]``?"""
        for start, end in self._excluded_spans.get(actor_name, ()):
            if start <= released and (end is None or issued < end):
                return True
        return False

    def _finish(self, end_time: float) -> None:
        for exit_time, epoch, actor, op_id in self._pending_release_viols:
            record = self._ops[op_id]
            crashed_at = self._crashed_at.get(record.actor)
            if crashed_at is not None and crashed_at <= exit_time:
                # The issuer was already dead at release: its un-applied
                # operations are written off by crash recovery, so owing
                # them is the documented degraded-barrier semantics (a
                # straggler landing even later stays monotone).
                continue
            dst_crashed_at = self._crashed_at.get(f"p{record.dst_rank}")
            if dst_crashed_at is not None and dst_crashed_at <= exit_time:
                # The *destination* was already dead at release: the DMA
                # can never be applied, and the runtime fence explicitly
                # excuses dead destinations (``membership.node_dead``)
                # with recovery writing the operation off.  Found by
                # RMCheck schedule exploration: the default schedule
                # always applied or dropped such puts before the crash
                # declaration, so the fuzzer never saw this path.
                continue
            if self._excluded_while_in_flight(
                f"p{record.dst_rank}", record.issue_time, exit_time
            ) or self._excluded_while_in_flight(
                record.actor, record.issue_time, exit_time
            ):
                # One endpoint sat on the minority side of a partition
                # while the operation was in flight: the resilient barrier
                # wrote it off (quorum semantics) and the suspended frame
                # applies at the heal — the straggler rule keeps that
                # monotone.  (Covers a just-rejoined rank releasing its
                # adopted barrier instance while its own flushed puts are
                # still in transit.)
                continue
            self.report.add(
                Violation(
                    kind="barrier",
                    time=exit_time,
                    message=(
                        f"barrier epoch {epoch} released {actor} while "
                        f"{record.actor}'s {record.op} (op {op_id}) to rank "
                        f"{record.dst_rank} is still un-applied"
                    ),
                    details={"epoch": epoch, "op_id": op_id},
                )
            )
        for rank in sorted(set(self._credit_applies) | set(self._op_done_bumps)):
            applies = self._credit_applies.get(rank, 0)
            bumps = self._op_done_bumps.get(rank, 0)
            if bumps < applies:
                self.report.add(
                    Violation(
                        kind="fence",
                        time=end_time,
                        message=(
                            f"dropped op_done credit for rank {rank}: "
                            f"{applies} applied store-class ops but only "
                            f"{bumps} credits"
                        ),
                        details={"rank": rank},
                    )
                )
        self._deadlock_check(end_time)

    def _deadlock_check(self, end_time: float) -> None:
        # Wait-for graph: a waiter points at every current holder of the
        # lock it is still pending on at end of trace.
        edges: Dict[str, Set[str]] = {}
        for (actor, lock), _when in self._lock_pending.items():
            for holder in self._lock_holders.get(lock, ()):  # may be empty
                if holder != actor:
                    edges.setdefault(actor, set()).add(holder)
        seen: Set[str] = set()
        for start in edges:
            if start in seen:
                continue
            path: List[str] = []
            on_path: Set[str] = set()

            def visit(node: str) -> Optional[List[str]]:
                if node in on_path:
                    return path[path.index(node):] + [node]
                if node in seen:
                    return None
                seen.add(node)
                path.append(node)
                on_path.add(node)
                for nxt in edges.get(node, ()):  # DFS
                    cycle = visit(nxt)
                    if cycle is not None:
                        return cycle
                path.pop()
                on_path.discard(node)
                return None

            cycle = visit(start)
            if cycle is not None:
                self.report.add(
                    Violation(
                        kind="deadlock",
                        time=end_time,
                        message=(
                            "lock wait-for cycle: " + " -> ".join(cycle)
                        ),
                        details={"cycle": cycle},
                    )
                )
                return
