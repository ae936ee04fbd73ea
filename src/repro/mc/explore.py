"""DFS schedule exploration with sleep-set partial-order reduction.

Stateless model checking in the Godefroid style: each schedule is a
fresh from-scratch simulation run steered by a
:class:`~repro.mc.strategy.RecordingStrategy`.  The explorer maintains a
work stack of ``(prefix, sleep)`` items; running one yields the choice
points it passed, and every not-yet-covered sibling choice becomes a new
work item whose sleep set carries the transitions already explored at
that state (filtered to those independent of the branch taken).  The
sleep sets are what collapse the exponential tail: two deliveries to
different endpoints commute, so only one of their two orders is ever
run.

Outcomes are judged by the full fuzz oracle
(:func:`repro.fuzz.runner.run_scenario`): RMCSan plus the end-state
invariants.  The first failing schedule becomes a counterexample,
greedily minimized (shortest failing truncation, then single-choice
deletions) and serialized to JSON for deterministic replay via
``repro mc --schedule``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..fuzz.runner import FuzzOutcome, run_scenario
from ..fuzz.scenario import Scenario, scenario_from_json, scenario_to_json
from .strategy import (
    Label,
    RecordingStrategy,
    canonical_trace_hash,
    independent,
    label_key,
)

#: A forced prefix / schedule inside the explorer: labels, not their keys.
Schedule = Tuple[Label, ...]

__all__ = [
    "MCResult",
    "explore",
    "load_counterexample",
    "replay_counterexample",
]

#: Default simulated-time cap for explored runs: explored scenarios are
#: tiny, and crash variants would otherwise idle through heartbeat
#: traffic all the way to the fuzzer's 50ms cap on every single run.
MC_SIM_CAP_US = 20_000.0

COUNTEREXAMPLE_FORMAT = "rmcheck-counterexample-v1"

#: Safety valve on counterexample minimization (each probe is a full run).
_MINIMIZE_BUDGET = 64


@dataclass
class MCResult:
    """Everything one exploration produced."""

    scenario: Scenario
    target: Optional[str] = None
    window: float = 0.0
    sim_cap_us: float = MC_SIM_CAP_US
    budget: int = 0
    #: Complete schedules executed and judged.
    schedules_run: int = 0
    #: Runs pruned by the sleep set (continuation covered elsewhere).
    pruned: int = 0
    #: Runs whose canonical delivery trace matched an earlier run.
    trace_dups: int = 0
    #: Forced prefixes that diverged (minimization probes only).
    diverged: int = 0
    #: Distinct timing-independent end states observed.
    distinct_end_states: int = 0
    #: Max choice-point depth over all runs.
    max_depth: int = 0
    #: Naive interleaving count: max over runs of the product of choice
    #: branching factors — what enumerating without POR would cost.
    naive_bound: int = 1
    #: True when the work stack drained inside the budget.
    exhausted: bool = False
    elapsed_s: float = 0.0
    #: Serialized minimal counterexample (None when every schedule is ok).
    counterexample: Optional[Dict[str, Any]] = None
    #: Violation kinds of the (minimized) counterexample.
    violation_kinds: Tuple[str, ...] = ()

    def ok(self) -> bool:
        return self.counterexample is None

    def reduction_factor(self) -> float:
        if self.schedules_run == 0:
            return 1.0
        return self.naive_bound / self.schedules_run

    def to_json(self) -> str:
        data = {
            "target": self.target,
            "scenario": json.loads(scenario_to_json(self.scenario)),
            "window": self.window,
            "sim_cap_us": self.sim_cap_us,
            "budget": self.budget,
            "schedules_run": self.schedules_run,
            "pruned": self.pruned,
            "trace_dups": self.trace_dups,
            "diverged": self.diverged,
            "distinct_end_states": self.distinct_end_states,
            "max_depth": self.max_depth,
            "naive_bound": self.naive_bound,
            "reduction_factor": round(self.reduction_factor(), 2),
            "exhausted": self.exhausted,
            "elapsed_s": round(self.elapsed_s, 3),
            "ok": self.ok(),
            "violation_kinds": list(self.violation_kinds),
            "counterexample": self.counterexample,
        }
        return json.dumps(data, sort_keys=True)

    def render(self) -> str:
        name = self.target or f"seed {self.scenario.seed}"
        status = "exhausted" if self.exhausted else "budget-bounded"
        lines = [
            f"== RMCheck {name}: {self.schedules_run} schedule(s) "
            f"explored ({status}), naive bound {self.naive_bound}, "
            f"reduction {self.reduction_factor():.1f}x =="
        ]
        lines.append(
            f"   depth<={self.max_depth}, {self.distinct_end_states} distinct "
            f"end state(s), {self.pruned} sleep-pruned, "
            f"{self.trace_dups} trace dup(s), {self.elapsed_s:.1f}s"
        )
        if self.ok():
            lines.append("   OK: every explored schedule satisfies the oracle")
        else:
            ce = self.counterexample or {}
            lines.append(
                f"   COUNTEREXAMPLE ({len(ce.get('schedule', []))} forced "
                f"choice(s)): {', '.join(self.violation_kinds)}"
            )
        return "\n".join(lines)


def _run_once(
    scenario: Scenario,
    prefix: Schedule,
    sleep: Tuple,
    window: float,
    sim_cap_us: float,
) -> Tuple[RecordingStrategy, FuzzOutcome]:
    strategy = RecordingStrategy(prefix=prefix, sleep=sleep, window=window)
    outcome = run_scenario(scenario, strategy=strategy, sim_cap_us=sim_cap_us)
    return strategy, outcome


def explore(
    scenario: Scenario,
    *,
    window: float = 0.0,
    budget: int = 2000,
    sim_cap_us: float = MC_SIM_CAP_US,
    target: Optional[str] = None,
    progress: Optional[Any] = None,
) -> MCResult:
    """Explore every inequivalent schedule of ``scenario`` (up to budget).

    ``budget`` bounds the number of *complete* judged runs; sleep-pruned
    runs (aborted early) are not charged against it.  ``window`` is the
    commutation window handed to the scheduler strategy: 0 explores only
    exact co-enabled ties, a few microseconds additionally reorders
    near-tie deliveries (see ``docs/model_checking.md``).
    """
    result = MCResult(
        scenario=scenario,
        target=target,
        window=window,
        sim_cap_us=sim_cap_us,
        budget=budget,
    )
    started = time.perf_counter()
    # DFS work stack of (forced prefix, sleep set at the branch state).
    stack: List[Tuple[Schedule, Tuple]] = [((), ())]
    seen_traces: set = set()
    end_states: set = set()
    first_failure: Optional[Tuple[Schedule, FuzzOutcome]] = None

    while stack and result.schedules_run < budget:
        prefix, sleep = stack.pop()
        strategy, outcome = _run_once(
            scenario, prefix, sleep, window, sim_cap_us
        )
        if strategy.diverged:
            result.diverged += 1
            continue
        if strategy.redundant:
            result.pruned += 1
            continue
        result.schedules_run += 1
        result.max_depth = max(result.max_depth, strategy.depth)
        result.naive_bound = max(
            result.naive_bound, strategy.branching_product()
        )
        trace_hash = canonical_trace_hash(strategy.trace)
        if trace_hash in seen_traces:
            result.trace_dups += 1
        seen_traces.add(trace_hash)
        end_states.add(outcome.end_state_hash)
        if progress is not None and result.schedules_run % 200 == 0:
            progress(result)
        if not outcome.ok() and first_failure is None:
            first_failure = (strategy.chosen(), outcome)
            break  # counterexample found: stop exploring, go minimize

        # Enqueue the uncovered siblings of every fresh choice point.
        # Reverse order keeps the DFS visiting the first alternative of
        # the deepest choice point next.
        children: List[Tuple[Schedule, Tuple]] = []
        taken = strategy.chosen()
        for d in range(len(prefix), len(strategy.decisions)):
            options, chosen, sleep_at_state = strategy.decisions[d]
            done: List = [chosen]
            base = set(sleep_at_state)
            for alt in options:
                if alt == chosen or alt in base:
                    continue
                child_sleep = tuple(
                    u
                    for u in (base | set(done))
                    if independent(u, alt)
                )
                children.append((taken[:d] + (alt,), child_sleep))
                done.append(alt)
        for child in reversed(children):
            stack.append(child)

    result.exhausted = not stack
    result.distinct_end_states = len(end_states)

    if first_failure is not None:
        schedule, outcome = first_failure
        schedule = _minimize(scenario, schedule, window, sim_cap_us)
        _, final = _run_once(scenario, schedule, (), window, sim_cap_us)
        result.violation_kinds = final.kinds() or outcome.kinds()
        result.counterexample = {
            "format": COUNTEREXAMPLE_FORMAT,
            "target": target,
            "scenario": json.loads(scenario_to_json(scenario)),
            "window": window,
            "sim_cap_us": sim_cap_us,
            "schedule": [label_key(label) for label in schedule],
            "violation_kinds": list(result.violation_kinds),
        }
    result.elapsed_s = time.perf_counter() - started
    return result


def _fails(
    scenario: Scenario,
    schedule: Schedule,
    window: float,
    sim_cap_us: float,
) -> bool:
    strategy, outcome = _run_once(scenario, schedule, (), window, sim_cap_us)
    return not strategy.diverged and not outcome.ok()


def _minimize(
    scenario: Scenario,
    schedule: Schedule,
    window: float,
    sim_cap_us: float,
) -> Schedule:
    """Greedy minimization: shortest failing truncation, then deletions.

    Mirrors the fuzzer's shrinker: every probe is a deterministic full
    run, capped at :data:`_MINIMIZE_BUDGET` probes so minimization can
    never dominate the exploration budget.
    """
    probes = 0
    # Shortest failing prefix (unforced choices fall back to FIFO order).
    for cut in range(len(schedule) + 1):
        if probes >= _MINIMIZE_BUDGET:
            return schedule
        probes += 1
        if _fails(scenario, schedule[:cut], window, sim_cap_us):
            schedule = schedule[:cut]
            break
    # Single-choice deletions, restarting after each success.
    improved = True
    while improved and probes < _MINIMIZE_BUDGET:
        improved = False
        for i in range(len(schedule)):
            if probes >= _MINIMIZE_BUDGET:
                break
            candidate = schedule[:i] + schedule[i + 1 :]
            probes += 1
            if _fails(scenario, candidate, window, sim_cap_us):
                schedule = candidate
                improved = True
                break
    return schedule


# -- counterexample replay -------------------------------------------------


def load_counterexample(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("format") != COUNTEREXAMPLE_FORMAT:
        raise ValueError(
            f"{path}: not an RMCheck counterexample "
            f"(format={data.get('format')!r})"
        )
    return data


def replay_counterexample(data: Dict[str, Any]) -> FuzzOutcome:
    """Deterministically re-execute a serialized counterexample."""
    scenario = scenario_from_json(json.dumps(data["scenario"]))
    strategy = RecordingStrategy(
        prefix=tuple(data["schedule"]),
        sleep=(),
        window=float(data.get("window", 0.0)),
    )
    return run_scenario(
        scenario,
        strategy=strategy,
        sim_cap_us=float(data.get("sim_cap_us", MC_SIM_CAP_US)),
    )
