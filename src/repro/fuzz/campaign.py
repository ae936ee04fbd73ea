"""The fuzz loop: seed sweeps, replay, shrinking, and the corpus.

``run_campaign`` walks consecutive seeds, expanding and running each
scenario until one fails, the seed budget runs out, or the wall-clock
budget expires.  The first failure is (optionally) shrunk to a minimal
still-failing schedule; both the original and shrunken outcomes land in
the :class:`CampaignResult` and can be serialized for the CI artifact.
With ``keep_going`` it does not stop at a failure (and shrinks nothing):
the result lists every failing seed with its violation kinds, which is
what the ``tests/fuzz/known_failing.json`` ratchet is compared against.

The **corpus** (``tests/fuzz/corpus/*.json``) holds full scenario JSON
— not bare seeds, because shrunken scenarios are hand-edited data no
seed expands to.  Every entry is a schedule that once exposed a real or
seeded bug; the tier-1 suite replays each one and expects it clean, so
a regression that re-introduces the bug fails the suite immediately.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .runner import FuzzOutcome, run_scenario
from .scenario import Scenario, generate, scenario_from_json, scenario_to_json
from .shrink import ShrinkResult, shrink

__all__ = [
    "CampaignResult",
    "load_corpus_entry",
    "replay_corpus",
    "replay_seed",
    "run_campaign",
    "save_corpus_entry",
]


@dataclass
class CampaignResult:
    """What one fuzz campaign observed."""

    start_seed: int
    seeds_run: int = 0
    elapsed_s: float = 0.0
    failure: Optional[FuzzOutcome] = None
    shrunk: Optional[ShrinkResult] = None
    #: Every failing outcome, in seed order, of a campaign that kept going.
    failures: List[FuzzOutcome] = field(default_factory=list)

    def ok(self) -> bool:
        return self.failure is None and not self.failures

    def failing(self) -> Dict[str, List[str]]:
        """``{seed: [violation kinds]}`` — the shape of the ratchet file."""
        return {str(o.scenario.seed): list(o.kinds()) for o in self.failures}

    def histogram(self) -> List[Tuple[str, str, str, int]]:
        """Failing seeds per (violation kind, lock, barrier body that ran),
        most first; a seed with two kinds counts under both."""
        counts = Counter(
            (kind, o.scenario.lock_kind or "-", o.barrier_body)
            for o in self.failures
            for kind in o.kinds()
        )
        return [
            key + (n,)
            for key, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ]

    def to_json(self) -> str:
        data = {
            "start_seed": self.start_seed,
            "seeds_run": self.seeds_run,
            "ok": self.ok(),
        }
        if self.failures:
            data["failing"] = self.failing()
            data["histogram"] = self.histogram()
        if self.failure is not None:
            data["failing_seed"] = self.failure.scenario.seed
            data["failure"] = json.loads(self.failure.to_json())
        if self.shrunk is not None:
            data["shrunk"] = {
                "scenario": json.loads(scenario_to_json(self.shrunk.scenario)),
                "violations": self.shrunk.outcome.violations,
                "steps": self.shrunk.steps,
                "runs": self.shrunk.runs,
            }
        return json.dumps(data, sort_keys=True, indent=2)

    def render(self) -> str:
        lines = [
            f"== Fuzz campaign: {self.seeds_run} seed(s) from "
            f"{self.start_seed}, {self.elapsed_s:.1f}s =="
        ]
        if self.ok():
            lines.append("no invariant violations found")
            return "\n".join(lines)
        if self.failures:
            from ..experiments.common import format_table

            lines.append(
                f"{len(self.failures)} failing seed(s): "
                + " ".join(self.failing())
            )
            rows = [("kind", "lock", "barrier", "seeds")]
            rows += [row[:3] + (str(row[3]),) for row in self.histogram()]
            lines.append(format_table(rows))
            return "\n".join(lines)
        lines.append(self.failure.render())
        if self.shrunk is not None:
            sr = self.shrunk
            lines.append(
                f"shrunk in {sr.runs} run(s), {len(sr.steps)} reduction(s):"
            )
            for step in sr.steps:
                lines.append(f"  - {step}")
            lines.append("minimal schedule: " + scenario_to_json(sr.scenario))
            lines.append(
                "replay with: armci-repro fuzz --replay "
                f"{self.failure.scenario.seed}"
            )
        return "\n".join(lines)


def run_campaign(
    start_seed: int = 0,
    num_seeds: Optional[int] = 100,
    time_budget_s: Optional[float] = None,
    do_shrink: bool = True,
    keep_going: bool = False,
) -> CampaignResult:
    """Fuzz consecutive seeds until failure or budget exhaustion — or, with
    ``keep_going``, through every failure to the end of the budget."""
    result = CampaignResult(start_seed=start_seed)
    t0 = time.monotonic()
    seed = start_seed
    while True:
        if num_seeds is not None and result.seeds_run >= num_seeds:
            break
        if (
            time_budget_s is not None
            and time.monotonic() - t0 >= time_budget_s
        ):
            break
        outcome = run_scenario(generate(seed))
        result.seeds_run += 1
        if not outcome.ok():
            if keep_going:
                result.failures.append(outcome)
            else:
                result.failure = outcome
                if do_shrink:
                    result.shrunk = shrink(outcome.scenario, outcome)
                break
        seed += 1
    result.elapsed_s = time.monotonic() - t0
    return result


def replay_seed(seed: int) -> FuzzOutcome:
    """Re-expand ``seed`` and run it: byte-identical to the original run."""
    return run_scenario(generate(seed))


def save_corpus_entry(path: Path, scenario: Scenario, note: str) -> None:
    payload = {
        "note": note,
        "scenario": json.loads(scenario_to_json(scenario)),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_corpus_entry(path: Path) -> Tuple[str, Scenario]:
    payload = json.loads(Path(path).read_text())
    return payload.get("note", ""), scenario_from_json(
        json.dumps(payload["scenario"])
    )


def replay_corpus(corpus_dir: Path) -> List[Tuple[str, FuzzOutcome]]:
    """Run every corpus entry; a clean tree reports zero violations."""
    results: List[Tuple[str, FuzzOutcome]] = []
    for path in sorted(Path(corpus_dir).glob("*.json")):
        _note, scenario = load_corpus_entry(path)
        results.append((path.name, run_scenario(scenario)))
    return results
