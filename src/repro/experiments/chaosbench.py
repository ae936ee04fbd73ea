"""Chaos benchmark: crash-stop failures under the paper's synchronization.

The paper's protocols assume every participant stays up.  This experiment
injects seeded :class:`~repro.net.faults.ProcessCrash` events at the worst
moments — a rank dies *inside* the combined barrier's binary exchange, a
lock holder dies *inside* its critical section — and measures what the
crash-stop machinery (:mod:`repro.runtime.membership`) delivers:

* **detection latency** — kill time to the declaration that bumps the
  membership epoch,
* **lock-recovery latency** — declaration to the moment the revoked lease's
  queue is spliced and the next waiter holds the lock,
* **survivor correctness** — every survivor's barrier completes with every
  *live* peer's puts applied; mutual exclusion and (for FIFO algorithms)
  grant order among survivors are preserved across the recovery.

The workload runs two phases over one shared lock:

1. **Barrier phase.**  Every rank puts a known value into every peer's
   region, then enters ``ARMCI_Barrier()``.  Barrier victims enter
   immediately and are killed mid-exchange; everyone else holds back until
   ``barrier_hold_us`` (after the kills, before the declarations) so the
   survivors demonstrably *restart* the exchange on the view change.

2. **Lock phase.**  Lock victims acquire first and "compute" until their
   kill fires mid-critical-section; survivors then contend for
   ``lock_iters`` acquire/compute/release rounds each.  A shared
   :class:`~repro.locks.LockAudit` records grant order, the order the lock
   linearised the requests and the critical-section owner cell — a
   survivor granted the lock while the cell still names a rank the view
   has dropped has *evidence* the holder died inside its CS and the lease
   was revoked (recorded as a preemption, not a violation).

The checks are the workload oracle the fuzzer runs too: the lock rules in
:mod:`repro.locks`, the slot rule in :func:`~repro.runtime.memory.audit_slots`
(one puts round here), the fault plan from ``FaultPlan.scripted``.

Everything is deterministic: the same ``kill_seed`` yields the same
detection times, recovery actions, and grant order on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..locks import (
    CS_US,
    FIFO_KINDS,
    LOCK_STAGGER_US,
    LockAudit,
    fifo_judged,
    make_lock,
)
from ..net.faults import FaultPlan
from ..net.params import NetworkParams
from ..runtime.cluster import ClusterRuntime
from ..runtime.memory import GlobalAddress, audit_slots
from ..sim.core import CRASHED
from .common import default_params, format_table

__all__ = [
    "ChaosBenchConfig",
    "ChaosBenchResult",
    "chaos_workload",
    "run_chaosbench",
    "FIFO_KINDS",
]

#: Lock algorithms that require every rank on the lock's home node.
_LOCAL_KINDS = ("ticket", "lh")


@dataclass(frozen=True)
class ChaosBenchConfig:
    """One chaos scenario: who dies, when, and around which protocol."""

    nprocs: int = 8
    procs_per_node: int = 1
    lock_kind: str = "hybrid"
    #: ``(rank, at_us)`` kills fired while the rank is inside the combined
    #: barrier's exchange (all ``at_us`` must precede ``barrier_hold_us``).
    #: ``None``: the stock script, rank ``nprocs - 3`` at 60us.
    barrier_kills: Optional[Tuple[Tuple[int, float], ...]] = None
    #: ``(rank, at_us)`` kills fired while the rank holds the lock (all
    #: ``at_us`` must follow ``barrier_hold_us``).  ``None``: the stock
    #: script, rank ``nprocs - 2`` at 900us.
    lock_kills: Optional[Tuple[Tuple[int, float], ...]] = None
    #: Absolute sim time before which no non-victim enters the phase-1
    #: barrier: late enough that the victims are already dead inside the
    #: exchange, early enough that they are not yet *declared* dead — so
    #: survivors provably restart the exchange on the view change.
    barrier_hold_us: float = 150.0
    lock_iters: int = 3
    cells: int = 4
    kill_seed: int = 20030422
    #: Partition windows ``(nodes, from_us, until_us)``: the node group is
    #: cut off for the window, its ranks freeze (quorum loss) and rejoin
    #: with a state resync at the heal.  Node 0 (the lock home) must stay
    #: on the majority side.
    partitions: Tuple[Tuple[Tuple[int, ...], float, float], ...] = ()
    #: Transient stalls ``(rank, from_us, until_us)``: the rank pauses and
    #: resumes (no crash).
    stalls: Tuple[Tuple[int, float, float], ...] = ()
    params: Optional[NetworkParams] = None

    def __post_init__(self) -> None:
        # The stock victims are placed relative to the process count (5 and
        # 6 of the default 8) so the script names ranks that exist.
        if self.barrier_kills is None:
            object.__setattr__(self, "barrier_kills", ((self.nprocs - 3, 60.0),))
        if self.lock_kills is None:
            object.__setattr__(self, "lock_kills", ((self.nprocs - 2, 900.0),))
        _validate(self)

    def victims(self) -> Tuple[int, ...]:
        return tuple(r for r, _t in self.barrier_kills) + tuple(
            r for r, _t in self.lock_kills
        )


@dataclass
class ChaosBenchResult:
    """Everything the scenario measured, plus pass/fail checks."""

    config: ChaosBenchConfig
    survivors: Tuple[int, ...] = ()
    dead: Tuple[int, ...] = ()
    final_epoch: int = 0
    detections: List[Dict[str, Any]] = field(default_factory=list)
    recoveries: List[Dict[str, Any]] = field(default_factory=list)
    preemptions: List[Dict[str, Any]] = field(default_factory=list)
    #: Partition-mode telemetry (empty under crash-only configs).
    freezes: List[Dict[str, Any]] = field(default_factory=list)
    heals: List[Dict[str, Any]] = field(default_factory=list)
    rejoins: List[Dict[str, Any]] = field(default_factory=list)
    survivor_grants: List[Tuple[int, int]] = field(default_factory=list)
    checks: Dict[str, Optional[bool]] = field(default_factory=dict)
    finished_us: float = 0.0

    def all_ok(self) -> bool:
        return all(v is not False for v in self.checks.values())

    def render(self) -> str:
        cfg = self.config
        lines = [
            f"== Chaos: crash-stop failures over {cfg.nprocs} procs, "
            f"{cfg.lock_kind} lock (kill seed {cfg.kill_seed}) ==",
            f"survivors: {list(self.survivors)}   dead: {list(self.dead)}   "
            f"final epoch: {self.final_epoch}   "
            f"finished at {self.finished_us:.1f}us",
        ]
        rows = [["rank", "killed (us)", "declared (us)", "detect latency (us)"]]
        for d in self.detections:
            rows.append(
                [
                    str(d["rank"]),
                    f"{d['crashed_at_us']:.1f}",
                    f"{d['declared_at_us']:.1f}",
                    f"{d['detect_latency_us']:.1f}",
                ]
            )
        lines.append(format_table(rows))
        if self.recoveries:
            rows = [["lock", "kind", "dead", "declared (us)", "recovery (us)"]]
            for r in self.recoveries:
                recovered = r.get("recovery_latency_us")
                rows.append(
                    [
                        r["lock"],
                        r["kind"],
                        str(r["dead_rank"]),
                        f"{r['declared_at_us']:.1f}",
                        "-" if recovered is None else f"{recovered:.1f}",
                    ]
                )
            lines.append(format_table(rows))
        for p in self.preemptions:
            lines.append(
                f"preemption: rank {p['dead_holder']} died in its CS; lease "
                f"revoked, lock granted to rank {p['granted_to']} "
                f"at {p['at_us']:.1f}us"
            )
        if self.freezes:
            rows = [["rank", "frozen (us)", "thawed (us)", "freeze duration (us)"]]
            for f in self.freezes:
                rows.append(
                    [
                        str(f["rank"]),
                        f"{f['frozen_at_us']:.1f}",
                        f"{f['unfrozen_at_us']:.1f}",
                        f"{f['frozen_for_us']:.1f}",
                    ]
                )
            lines.append(format_table(rows))
        for h in self.heals:
            # Heal latency: cut restored -> last frozen rank back in
            # business (quorum regained, rejoin resync applied, thawed).
            thaws = [
                f["unfrozen_at_us"]
                for f in self.freezes
                if f["unfrozen_at_us"] >= h["healed_at_us"]
            ]
            latency = (max(thaws) - h["healed_at_us"]) if thaws else 0.0
            lines.append(
                f"heal: cut {h['nodes']} from {h['from_us']:.1f}us healed at "
                f"{h['healed_at_us']:.1f}us, rejoined ranks {h['rejoined']} "
                f"-> epoch {h['epoch']} (heal latency {latency:.1f}us)"
            )
        for r in self.rejoins:
            lines.append(
                f"rejoin: rank {r['rank']} resynced into the view at "
                f"{r['rejoined_at_us']:.1f}us"
            )
        for name, ok in sorted(self.checks.items()):
            status = "skipped" if ok is None else ("ok" if ok else "FAILED")
            lines.append(f"check {name}: {status}")
        lines.append(
            "ALL CHECKS PASSED" if self.all_ok() else "SOME CHECKS FAILED"
        )
        return "\n".join(lines)


def chaos_workload(ctx, cfg: ChaosBenchConfig, audit: LockAudit):
    """Per-rank program: barrier phase, then lock phase (see module doc)."""
    env = ctx.env
    membership = ctx.membership
    barrier_victims = {r for r, _t in cfg.barrier_kills}
    lock_victim_order = [r for r, _t in cfg.lock_kills]
    # The slot array must be the FIRST allocation so `base` is identical in
    # every region (lock construction allocates home-side cells and would
    # skew the home rank's offsets).
    slot_cells = cfg.cells
    base = ctx.region.alloc_named("chaos.slots", ctx.nprocs * slot_cells, initial=0)
    # Every rank constructs its handle up front so recovery can inspect the
    # dead ranks' lock state (registered with the membership service).  The
    # home is rank 0, on node 0, which no partition may cut off.
    lock = make_lock(cfg.lock_kind, ctx, home_rank=0, name="chaos")

    # -- Phase 1: puts + combined barrier with mid-exchange kills ---------
    for peer in range(ctx.nprocs):
        if peer == ctx.rank:
            continue
        values = [100 * (ctx.rank + 1)] * slot_cells
        yield from ctx.armci.put(
            GlobalAddress(peer, base + ctx.rank * slot_cells), values
        )
    if ctx.rank not in barrier_victims and env.now < cfg.barrier_hold_us:
        # Hold back so the barrier victims are blocked inside the exchange
        # when their kills fire (a completed barrier can't be disrupted).
        yield cfg.barrier_hold_us - env.now
    yield from ctx.armci.barrier()
    barrier_done_us = env.now

    # Survivor memory check: every live peer's puts must be applied; a dead
    # peer's slot holds either its full value or nothing (puts are atomic).
    slots_ok, dead_slots_ok, _slots = audit_slots(
        ctx, base, slot_cells, lambda p: 100 * (p + 1), lambda p: {0, 100 * (p + 1)}
    )

    # -- Phase 2: lock contention with mid-CS kills -----------------------
    if ctx.rank in lock_victim_order:
        idx = lock_victim_order.index(ctx.rank)
        if idx:
            yield LOCK_STAGGER_US * idx
        yield from lock.acquire()
        audit.enter(env.now, lock, -1, membership)
        while True:  # "compute" in the CS until the scheduled kill fires
            yield CS_US

    yield LOCK_STAGGER_US * (len(lock_victim_order) + 1 + ctx.rank)
    for it in range(cfg.lock_iters):
        yield from lock.acquire()
        audit.enter(env.now, lock, it, membership)
        yield CS_US
        audit.leave(ctx.rank, membership)
        yield from lock.release()

    # -- Final combined barrier over the survivor view --------------------
    yield from ctx.armci.barrier()
    return {
        "rank": ctx.rank,
        "barrier_done_us": barrier_done_us,
        "slots_ok": slots_ok,
        "dead_slots_ok": dead_slots_ok,
        "finished_us": env.now,
    }


def _make_params(cfg: ChaosBenchConfig) -> NetworkParams:
    kills = tuple(cfg.barrier_kills) + tuple(cfg.lock_kills)
    return default_params(cfg.params).with_(
        faults=FaultPlan.scripted(
            [("rank", rank, at_us) for rank, at_us in kills],
            cfg.partitions,
            cfg.stalls,
            seed=cfg.kill_seed,
        )
    )


def _validate(cfg: ChaosBenchConfig) -> None:
    victims = cfg.victims()
    if len(set(victims)) != len(victims):
        raise ValueError(f"victim ranks must be distinct, got {victims}")
    if len(victims) >= cfg.nprocs - 1:
        raise ValueError("need at least two survivors")
    for rank in victims:
        if not (0 <= rank < cfg.nprocs):
            raise ValueError(f"victim rank {rank} out of range 0..{cfg.nprocs - 1}")
    for _rank, at_us in cfg.barrier_kills:
        if at_us >= cfg.barrier_hold_us:
            raise ValueError(
                f"barrier kill at {at_us}us must precede "
                f"barrier_hold_us={cfg.barrier_hold_us}us"
            )
    for _rank, at_us in cfg.lock_kills:
        if at_us <= cfg.barrier_hold_us:
            raise ValueError(
                f"lock kill at {at_us}us must follow "
                f"barrier_hold_us={cfg.barrier_hold_us}us"
            )
    if cfg.partitions:
        if cfg.lock_kind in _LOCAL_KINDS:
            raise ValueError(
                f"single-node lock kinds ({', '.join(_LOCAL_KINDS)}) place "
                "every rank on one node and cannot be partitioned "
                f"(got --lock {cfg.lock_kind})"
            )
        nnodes = cfg.nprocs // cfg.procs_per_node
        for nodes, from_us, until_us in cfg.partitions:
            if until_us <= from_us:
                raise ValueError(
                    f"partition window [{from_us}, {until_us}) is empty"
                )
            if 0 in nodes:
                raise ValueError(
                    "node 0 (the lock home) must stay on the majority side"
                )
            if any(not (0 < n < nnodes) for n in nodes):
                raise ValueError(
                    f"partition nodes {nodes} out of range 1..{nnodes - 1}"
                )
            if 2 * len(set(nodes)) >= nnodes:
                raise ValueError(
                    f"cut {nodes} leaves no strict node majority "
                    f"({nnodes} nodes total)"
                )
    for rank, from_us, until_us in cfg.stalls:
        if not (0 < rank < cfg.nprocs):
            raise ValueError(f"stall rank {rank} out of range 1..{cfg.nprocs - 1}")
        if until_us <= from_us:
            raise ValueError(f"stall window [{from_us}, {until_us}) is empty")


def run_chaosbench(
    cfg: Optional[ChaosBenchConfig] = None, monitor=None
) -> ChaosBenchResult:
    """Run one chaos scenario and evaluate the survivor-correctness checks."""
    cfg = cfg or ChaosBenchConfig()
    procs_per_node = cfg.procs_per_node
    if cfg.lock_kind in _LOCAL_KINDS:
        procs_per_node = cfg.nprocs  # these algorithms need a single node
    params = _make_params(cfg)
    runtime = ClusterRuntime(
        cfg.nprocs, procs_per_node=procs_per_node, params=params, monitor=monitor
    )
    audit = LockAudit()
    per_rank = runtime.run_spmd(chaos_workload, cfg, audit)

    membership = runtime.membership
    report = membership.report() if membership is not None else {}
    victims = set(cfg.victims())
    survivors = tuple(r for r in range(cfg.nprocs) if r not in victims)
    survivor_set = set(survivors)
    lock_victims = {r for r, _t in cfg.lock_kills}

    result = ChaosBenchResult(
        config=cfg,
        survivors=tuple(report.get("alive", survivors)),
        dead=tuple(report.get("dead", sorted(victims))),
        final_epoch=report.get("epoch", 0),
        detections=report.get("detections", []),
        recoveries=report.get("recoveries", []),
        preemptions=list(audit.preemptions),
        freezes=report.get("freezes", []),
        heals=report.get("heals", []),
        rejoins=report.get("rejoins", []),
        survivor_grants=audit.granted(survivor_set),
        finished_us=runtime.env.now,
    )

    checks = result.checks
    checks["victims crashed"] = all(per_rank[r] is CRASHED for r in victims)
    checks["all victims declared"] = set(report.get("dead", ())) == victims
    survivor_results = [per_rank[r] for r in survivors]
    checks["survivors finished"] = finished = all(
        isinstance(res, dict) for res in survivor_results
    )
    checks["survivor memory"] = all(
        res["slots_ok"] and res["dead_slots_ok"]
        for res in survivor_results
        if isinstance(res, dict)
    )
    checks["mutual exclusion"] = audit.mutex_ok
    # Every lock victim that actually entered its critical section must be
    # observed as a preempted holder by a later grantee.  A victim that
    # died while still *queued* (e.g. the successor in a double-crash)
    # never held the lock, so no preemption evidence exists for it.
    granted_victims = {rank for rank, _it in audit.granted(lock_victims)}
    checks["dead holders preempted"] = granted_victims <= {
        p["dead_holder"] for p in audit.preemptions
    }
    grants_per_survivor = {r: 0 for r in survivors}
    for rank, _it in result.survivor_grants:
        grants_per_survivor[rank] += 1
    checks["every survivor served"] = all(
        n == cfg.lock_iters for n in grants_per_survivor.values()
    )
    checks["fifo among survivors"] = (
        audit.fifo_ok(survivor_set)
        if fifo_judged(cfg.lock_kind, params.faults, stuck=not finished)
        else None
    )
    checks["locks recovered"] = all(
        r.get("recovery_latency_us") is not None for r in result.recoveries
    )
    if cfg.partitions or cfg.stalls:
        # Post-heal correctness: nobody is left outside the view, and the
        # survivor memory / mutual-exclusion / every-survivor-served checks
        # above already ran over the healed view.
        checks["partition healed"] = not report.get("excluded", ())
    return result
