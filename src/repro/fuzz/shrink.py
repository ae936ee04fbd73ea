"""Greedy minimization of a failing scenario.

Given a scenario whose run produced violations, :func:`shrink` tries a
fixed repertoire of *reductions* — remove a crash entry, a partition or
a stall window, drop a fault dimension (all drops, all dups, all delays,
or one faulty link), flatten the structure (no hierarchy, the default
barrier, one workload family, one rank per node, one rank fewer), delete
a workload phase, halve the lock iteration count or the put width — and
keeps any reduction under which the failure *persists*: the shrunken
run must still report at least one of the original violation kinds.
The loop restarts from the first reduction after every success and
stops at a fixpoint (or a run budget), so the result is a local minimum
reachable by single deletions — small enough to read, exact enough to
debug.

The shrunken scenario is no longer the pure expansion of its seed (its
fields have been edited), which is why corpus entries store the full
scenario JSON rather than a seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

from .runner import FuzzOutcome, run_scenario
from .scenario import Scenario, _legalize

__all__ = ["ShrinkResult", "shrink"]


@dataclass
class ShrinkResult:
    """Minimal still-failing scenario plus the trail that led there."""

    scenario: Scenario
    outcome: FuzzOutcome
    original: Scenario
    steps: List[str]
    runs: int

    def reduced(self) -> bool:
        return self.scenario != self.original


#: What each workload family's phase list may hold.
_FAMILY_PHASES = {"locks": ("lock", "barrier"), "strips": ("puts", "barrier")}


def _structural(scenario: Scenario) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Reductions of the scenario's shape, as field overrides.

    They can strand a crash / partition / stall target or a lock's
    placement rule, so :func:`_candidates` re-legalizes each one.
    """
    if scenario.hier_arity:
        yield f"hier_arity {scenario.hier_arity} -> 0", {"hier_arity": 0}
    if scenario.barrier_algorithm != "exchange":
        yield (
            f"barrier {scenario.barrier_algorithm} -> exchange",
            {"barrier_algorithm": "exchange"},
        )
    if scenario.workload == "mixed":
        for family, allowed in _FAMILY_PHASES.items():
            phases = tuple(p for p in scenario.phases if p in allowed)
            yield f"workload mixed -> {family}", {"workload": family, "phases": phases}
    if scenario.procs_per_node > 1:
        yield f"ppn {scenario.procs_per_node} -> 1", {"procs_per_node": 1}
    if scenario.nprocs > 3:  # the generator's smallest run
        yield f"drop rank {scenario.nprocs - 1}", {"nprocs": scenario.nprocs - 1}


def _relegalized(scenario: Scenario, **overrides: Any) -> Scenario:
    """``scenario`` with ``overrides``, repaired by the generator's rules.

    The identity on a legal scenario: explicit legal targets stand.
    """
    fields = dataclasses.asdict(scenario)
    # _legalize reads a stall's rank as a hint: rank = 1 + hint % (N - 1).
    fields["stalls"] = tuple((r - 1, f, u) for r, f, u in scenario.stalls)
    return _legalize({**fields, **overrides})


def _candidates(scenario: Scenario) -> Iterator[Tuple[str, Scenario]]:
    """Single-step reductions, cheapest-to-biggest-win first."""
    for what, field in (("crash", "crashes"), ("partition", "partitions"), ("stall", "stalls")):
        entries = getattr(scenario, field)
        for i, entry in enumerate(entries):
            yield (
                f"drop {what} {entry}",
                dataclasses.replace(scenario, **{field: entries[:i] + entries[i + 1:]}),
            )
    for i, link in enumerate(scenario.fault_links):
        yield (
            f"drop faulty link {link}",
            dataclasses.replace(
                scenario,
                fault_links=(
                    scenario.fault_links[:i] + scenario.fault_links[i + 1:]
                ),
            ),
        )
    for rate in ("drop_rate", "dup_rate", "delay_rate"):
        if getattr(scenario, rate) > 0.0:
            yield (f"zero {rate}", dataclasses.replace(scenario, **{rate: 0.0}))
    for label, overrides in _structural(scenario):
        candidate = _relegalized(scenario, **overrides)
        if candidate != scenario:  # e.g. a ticket lock pins ppn = nprocs
            yield label, candidate
    # Phases: never remove the final barrier (the memory audit needs it).
    for i in range(len(scenario.phases) - 1):
        phases = scenario.phases[:i] + scenario.phases[i + 1:]
        yield (
            f"drop phase {i} ({scenario.phases[i]})",
            dataclasses.replace(scenario, phases=phases),
        )
    if scenario.lock_iters > 1:
        yield (
            f"lock_iters {scenario.lock_iters} -> {scenario.lock_iters // 2}",
            dataclasses.replace(scenario, lock_iters=scenario.lock_iters // 2),
        )
    if scenario.cells > 1:
        yield (
            f"cells {scenario.cells} -> {scenario.cells // 2}",
            dataclasses.replace(scenario, cells=scenario.cells // 2),
        )


def _still_fails(outcome: FuzzOutcome, signature: Tuple[str, ...]) -> bool:
    """The reduction preserved at least one original violation kind."""
    return any(kind in signature for kind in outcome.kinds())


def shrink(
    scenario: Scenario,
    outcome: FuzzOutcome,
    max_runs: int = 200,
) -> ShrinkResult:
    """Greedily minimize ``scenario`` while its failure persists."""
    signature = outcome.kinds()
    current, current_outcome = scenario, outcome
    steps: List[str] = []
    runs = 0
    progress = True
    while progress and runs < max_runs:
        progress = False
        for label, candidate in _candidates(current):
            if runs >= max_runs:
                break
            runs += 1
            try:
                candidate_outcome = run_scenario(candidate)
            except Exception:  # a reduction that crashes the runner is void
                continue
            if _still_fails(candidate_outcome, signature):
                current, current_outcome = candidate, candidate_outcome
                steps.append(label)
                progress = True
                break  # restart the candidate scan from the top
    return ShrinkResult(
        scenario=current,
        outcome=current_outcome,
        original=scenario,
        steps=steps,
        runs=runs,
    )
