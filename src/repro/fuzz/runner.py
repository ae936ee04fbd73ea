"""Execute one fuzz scenario and collect every invariant violation.

The oracle layers two kinds of checks over a monitored run:

* **RMCSan** — the happens-before engine's own verdict: data races,
  fence violations (a read that can observe a lost put), early barrier
  or NIC release, lock protocol violations, deadlock cycles.
* **Workload invariants** — end-state checks the event stream cannot
  express: every survivor finishes within the simulated-time cap (a
  stuck survivor is a lost wakeup or deadlock), every *live* peer's
  final puts are applied after the closing barrier, dead peers' slots
  are atomic (whole put or nothing), at most one rank ever sits in the
  lock's critical section among live holders, grant order is FIFO among
  survivors when the algorithm promises it *and* no fault can reorder
  request arrival, and every scheduled rank/node death is eventually
  declared by the membership service.

The lock and slot invariants are the workload oracle ``repro chaos`` runs
too (:class:`~repro.locks.LockAudit`, :func:`~repro.locks.fifo_judged`,
:func:`~repro.runtime.memory.audit_slots`, ``FaultPlan.scripted``); only
the parameter overrides below are this runner's own.

Everything is deterministic: the scenario seeds the fault RNG, so one
seed reproduces one outcome byte-for-byte (see
:meth:`FuzzOutcome.to_json`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..net.faults import FaultPlan, LinkFaults
from ..net.params import NetworkParams, myrinet2000
from ..sim.core import CRASHED
from .scenario import Scenario

__all__ = ["FuzzOutcome", "SIM_CAP_US", "run_scenario"]

#: Hard simulated-time cap: generously above any legitimate completion
#: (crash times max out at 1.5ms; detection + recovery + the workload
#: finish within a few ms).  A program still running at the cap is hung.
SIM_CAP_US = 50_000.0

#: Spacing between lock requests so request-send order equals
#: queue-arrival order on a fault-free network (see chaosbench).
_LOCK_STAGGER_US = 40.0
_CS_US = 5.0


@dataclass
class FuzzOutcome:
    """Everything one scenario run produced, violations first."""

    scenario: Scenario
    violations: List[Dict[str, Any]] = field(default_factory=list)
    survivors: Tuple[int, ...] = ()
    dead: Tuple[int, ...] = ()
    finished_us: float = 0.0
    events_analyzed: int = 0
    #: Timing-independent digest of the observable end state (survivors,
    #: memory contents, grant order, mutex verdict).  Used by RMCheck to
    #: deduplicate equivalent schedules; deliberately NOT part of
    #: :meth:`to_json` so replay byte-comparisons predating it still match.
    end_state_hash: str = ""
    #: The barrier body that ran, for the campaign histogram: the named
    #: algorithm fault-free, ``resilient`` under a membership service,
    #: ``nic``, or ``nic→resilient`` once any rank's NIC barrier degraded.
    #: Not part of :meth:`to_json` either: the event-stream digest hashes it.
    barrier_body: str = ""

    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, message: str, **details: Any) -> None:
        entry: Dict[str, Any] = {"kind": kind, "message": message}
        if details:
            entry["details"] = {k: details[k] for k in sorted(details)}
        self.violations.append(entry)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({v["kind"] for v in self.violations}))

    def to_json(self) -> str:
        """Canonical JSON: identical text for identical replays."""
        from .scenario import scenario_to_json

        return json.dumps(
            {
                "scenario": json.loads(scenario_to_json(self.scenario)),
                "violations": self.violations,
                "survivors": list(self.survivors),
                "dead": list(self.dead),
                "finished_us": round(self.finished_us, 3),
                "events_analyzed": self.events_analyzed,
            },
            sort_keys=True,
        )

    def render(self) -> str:
        sc = self.scenario
        head = (
            f"seed {sc.seed}: {sc.workload} x{len(sc.phases)} phases, "
            f"{sc.nprocs} procs ({sc.procs_per_node}/node), "
            f"barrier={sc.barrier_algorithm}"
            + (f", topo=two_level({sc.hier_arity})" if sc.hier_arity else "")
            + (f", lock={sc.lock_kind}" if sc.lock_kind else "")
            + (f", crashes={list(sc.crashes)}" if sc.crashes else "")
            + (f", partitions={list(sc.partitions)}" if sc.partitions else "")
            + (f", stalls={list(sc.stalls)}" if sc.stalls else "")
            + (
                f", faults(drop={sc.drop_rate} dup={sc.dup_rate} "
                f"delay={sc.delay_rate})"
                if sc.has_faults()
                else ""
            )
        )
        if self.ok():
            return f"[ok] {head}"
        lines = [f"[FAIL] {head}"]
        for v in self.violations:
            lines.append(f"  [{v['kind']}] {v['message']}")
        return "\n".join(lines)


def _make_params(scenario: Scenario) -> NetworkParams:
    rates = LinkFaults(
        drop_rate=scenario.drop_rate,
        dup_rate=scenario.dup_rate,
        delay_rate=scenario.delay_rate,
        delay_spike_us=scenario.delay_spike_us,
    )
    links = tuple(((a, b), rates) for a, b in scenario.fault_links)
    plan = FaultPlan.scripted(
        scenario.crashes,
        scenario.partitions,
        scenario.stalls,
        default=LinkFaults() if links else rates,
        links=links,
        seed=scenario.seed,
        reliable=True,
    )
    overrides: Dict[str, Any] = {
        "faults": plan,
        "nic_algorithm": scenario.nic_algorithm,
    }
    if scenario.hier_arity >= 2:
        from ..topo import two_level

        overrides["hierarchy"] = two_level(scenario.hier_arity)
    if scenario.crashes or scenario.has_transients():
        # Tight retry budget so a silent (crashed or cut-off) endpoint
        # exhausts its retransmissions — and escalates to suspicion — well
        # inside the cap.  Only with a crash/partition schedule: on a
        # merely-lossy network the default budget keeps false suspicion of
        # live peers negligible.
        overrides["retry_timeout_us"] = 30.0
        overrides["max_retries"] = 6
    if scenario.has_transients():
        # Partitioned runs exercise the adaptive estimator too (it is the
        # default in fault-bearing CLI runs); crash-only scenarios keep
        # the fixed timeout so historical corpus replays are unchanged.
        overrides["adaptive_retry"] = True
    return myrinet2000().with_(**overrides)


def _fuzz_workload(ctx, scenario: Scenario, audit):
    """Per-rank program: execute the scenario's phase list, reporting each
    critical section to ``audit`` (a :class:`~repro.locks.LockAudit`)."""
    from ..locks import make_lock
    from ..runtime.memory import GlobalAddress, audit_slots

    env = ctx.env
    membership = ctx.membership
    cells = scenario.cells
    base = ctx.region.alloc_named(
        "fuzz.slots", ctx.nprocs * cells, initial=0
    )
    lock = None
    if scenario.lock_kind is not None:
        lock = make_lock(scenario.lock_kind, ctx, home_rank=0, name="fuzz")

    put_round = 0
    for phase in scenario.phases:
        if phase == "puts":
            put_round += 1
            value = 100 * (ctx.rank + 1) + put_round
            for peer in range(ctx.nprocs):
                if peer == ctx.rank:
                    continue
                yield from ctx.armci.put(
                    GlobalAddress(peer, base + ctx.rank * cells),
                    [value] * cells,
                )
        elif phase == "lock" and lock is not None:
            yield _LOCK_STAGGER_US * (ctx.rank + 1)
            for it in range(scenario.lock_iters):
                audit.request(env.now, ctx.rank, it)
                yield from lock.acquire()
                audit.enter(env.now, ctx.rank, it, membership)
                yield _CS_US
                audit.leave(ctx.rank, membership)
                yield from lock.release()
        elif phase == "barrier":
            yield from ctx.armci.barrier(algorithm=scenario.barrier_algorithm)

    if membership is not None and scenario.has_transients():
        # Quiesce before auditing: wait until every live peer is back in
        # view (partitions healed, stalls resumed, rejoins resynced), then
        # fence with one more barrier so the minority's puts — flushed at
        # the heal — are ordered before the audit reads.  Without this the
        # audit races the flush by construction: the majority's barrier
        # wrote the cut-off ranks' contributions off.
        while not membership.in_view(ctx.rank) or any(
            membership.is_alive(p) and not membership.in_view(p)
            for p in range(ctx.nprocs)
        ):
            yield 50.0
        yield from ctx.armci.barrier(algorithm=scenario.barrier_algorithm)

    # Post-barrier memory audit: the final phase is always a barrier, so
    # every live peer's last puts round must be visible here; a dead peer's
    # slot may hold any round's whole value.
    rounds = scenario.phases.count("puts")
    slots_ok, dead_slots_ok, slots = (
        audit_slots(
            ctx,
            base,
            cells,
            lambda p: 100 * (p + 1) + rounds,
            lambda p: {0} | {100 * (p + 1) + r for r in range(1, rounds + 1)},
        )
        if rounds
        else (True, True, [])
    )
    return {
        "rank": ctx.rank,
        "slots_ok": slots_ok,
        "dead_slots_ok": dead_slots_ok,
        "slots": slots,
        "finished_us": env.now,
    }


def run_scenario(
    scenario: Scenario,
    strategy: Any = None,
    sim_cap_us: Optional[float] = None,
) -> FuzzOutcome:
    """Run ``scenario`` under the monitor; return outcome + violations.

    ``strategy`` optionally installs a
    :class:`~repro.sim.core.SchedulerStrategy` on the runtime's
    environment before the run — RMCheck's handle for steering the
    schedule; ``None`` keeps the ordinary uncontrolled scheduler.  A run the
    strategy aborts comes back with the single finding ``aborted`` and no
    oracle verdict.
    ``sim_cap_us`` overrides :data:`SIM_CAP_US` (model-checking runs use a
    smaller cap since explored scenarios are tiny).
    """
    from ..analysis.monitor import SyncMonitor
    from ..locks import LockAudit, fifo_judged
    from ..runtime.cluster import ClusterRuntime

    cap = SIM_CAP_US if sim_cap_us is None else sim_cap_us
    outcome = FuzzOutcome(scenario=scenario)
    monitor = SyncMonitor()
    params = _make_params(scenario)
    runtime = ClusterRuntime(
        scenario.nprocs,
        procs_per_node=scenario.procs_per_node,
        params=params,
        monitor=monitor,
    )
    if strategy is not None:
        runtime.env._mc_strategy = strategy
    audit = LockAudit()
    procs = runtime.spawn(_fuzz_workload, scenario, audit)
    try:
        runtime.env.run(until=cap)
    except Exception as exc:  # a daemon/server blew up: that IS a finding
        outcome.add(
            "exception",
            f"runtime crashed at {runtime.env.now:.1f}us: "
            f"{type(exc).__name__}: {exc}",
        )
    outcome.finished_us = runtime.env.now
    outcome.barrier_body = _barrier_body(scenario.barrier_algorithm, runtime)
    if strategy is not None and strategy.abort:
        # Abandoned part-way (RMCheck: sleep-pruned, or a forced prefix that
        # diverged).  A partial event stream is not a run to judge; whoever
        # installed the strategy reads why off the strategy.
        outcome.add(
            "aborted",
            f"the scheduler strategy abandoned the run at "
            f"{runtime.env.now:.1f}us; not judged",
        )
        return outcome

    membership = runtime.membership
    alive = {
        r
        for r in range(scenario.nprocs)
        if membership is None or membership.is_alive(r)
    }
    declared_dead = tuple(membership.dead_ranks()) if membership else ()
    outcome.survivors = tuple(sorted(alive))
    outcome.dead = declared_dead

    # -- liveness: every live rank's program must have finished ----------
    stuck = sorted(
        rank
        for rank, proc in procs.items()
        if proc.is_alive and rank in alive
    )
    if stuck:
        outcome.add(
            "deadlock",
            f"live ranks {stuck} never finished within {cap:.0f}us "
            "(deadlock or lost wakeup)",
            stuck=stuck,
        )

    # -- program exceptions are oracle failures in their own right -------
    for rank, proc in procs.items():
        if proc.triggered and not proc.ok:
            outcome.add(
                "exception",
                f"rank {rank} raised {type(proc.value).__name__}: {proc.value}",
                rank=rank,
            )

    # -- scheduled rank/node deaths must be declared ---------------------
    planned = scenario.dead_ranks_planned()
    if planned:
        kill_time = {
            rank: min(
                at
                for kind, target, at in scenario.crashes
                if (kind == "rank" and target == rank)
                or (
                    kind == "node"
                    and rank // scenario.procs_per_node == target
                )
            )
            for rank in planned
        }
        outlived = set()
        for rank in planned:
            proc = procs[rank]
            result = proc.value if proc.triggered and proc.ok else None
            if isinstance(result, dict):
                if result["finished_us"] > kill_time[rank]:
                    # Finishing *before* the kill fires is legitimate
                    # (the crash hit a completed program); after is not.
                    outcome.add(
                        "membership",
                        f"rank {rank} was scheduled to die at "
                        f"{kill_time[rank]:.1f}us but finished normally "
                        f"at {result['finished_us']:.1f}us",
                        rank=rank,
                    )
                else:
                    outlived.add(rank)  # completed before its kill fired
        missing = sorted(set(planned) - set(declared_dead) - outlived)
        if missing:
            outcome.add(
                "membership",
                f"scheduled deaths {missing} never declared "
                f"(declared: {list(declared_dead)})",
                missing=missing,
            )

    # -- workload invariants over the finishers --------------------------
    finished = {
        rank: proc.value
        for rank, proc in procs.items()
        if proc.triggered and proc.ok and isinstance(proc.value, dict)
    }
    bad_memory = sorted(
        rank
        for rank, res in finished.items()
        if not (res["slots_ok"] and res["dead_slots_ok"])
    )
    if bad_memory:
        outcome.add(
            "memory",
            f"ranks {bad_memory} observed divergent memory after the final "
            "barrier (missing live puts or torn dead puts)",
            ranks=bad_memory,
        )
    if not audit.mutex_ok:
        outcome.add(
            "lock",
            "two live ranks held the lock simultaneously "
            "(critical-section owner cell was overwritten)",
        )
    if fifo_judged(scenario.lock_kind, params.faults, stuck) and not audit.fifo_ok(
        alive
    ):
        outcome.add(
            "lock-fifo",
            f"{scenario.lock_kind} grant order diverged from request "
            "order among survivors on an order-preserving network",
            requests=audit.requested(alive),
            grants=audit.granted(alive),
        )

    # -- RMCSan verdict over the whole event stream ----------------------
    report = monitor.analyze()
    outcome.events_analyzed = report.events_analyzed
    for violation in report.violations:
        outcome.add(
            f"san-{violation.kind}",
            violation.message,
            time=round(violation.time, 3),
        )
    if report.suppressed:
        outcome.add(
            "san-suppressed",
            f"{report.suppressed} further RMCSan violation(s) suppressed",
        )

    outcome.violations.sort(key=lambda v: (v["kind"], v["message"]))
    outcome.end_state_hash = _end_state_hash(outcome, finished, audit, alive)
    return outcome


def _barrier_body(algorithm: str, runtime) -> str:
    """Which barrier body ``runtime``'s ranks ran for ``algorithm``: under a
    membership service every host algorithm is the survivor-view exchange,
    and a NIC barrier may degrade to it."""
    if algorithm == "nic":
        degraded = any(a.stats.get("nic_degraded") for a in runtime.armcis.values())
        return "nic→resilient" if degraded else "nic"
    return algorithm if runtime.membership is None else "resilient"


def _end_state_hash(
    outcome: FuzzOutcome,
    finished: Dict[int, Dict[str, Any]],
    audit,
    alive: set,
) -> str:
    """Digest of the *timing-independent* observable end state.

    Excludes every wall/simulated-time quantity (finish times, grant
    timestamps): two schedules that land in the same final state — same
    survivors, same memory contents, same grant order among survivors —
    hash identically even when their event timings differ, which is what
    lets RMCheck's state deduplication collapse equivalent interleavings.
    """
    state = {
        "survivors": list(outcome.survivors),
        "dead": list(outcome.dead),
        "ranks": [
            [rank, res["slots_ok"], res["dead_slots_ok"], res.get("slots", [])]
            for rank, res in sorted(finished.items())
        ],
        "grants": audit.granted(alive),
        "mutex_ok": audit.mutex_ok,
    }
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
