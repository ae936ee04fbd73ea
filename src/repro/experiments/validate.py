"""Installation self-check: does this build reproduce the paper?

``armci-repro validate`` runs quick versions of the headline experiments
and checks each against the expected range (paper claim + calibration
tolerance).  Exit status reflects the outcome, so it can serve as a CI
gate for the reproduction itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..armci.barrier import predicted_crossover_targets
from ..net.params import myrinet2000
from .ablations import run_crossover, run_release_opt
from .common import format_table
from .fig7_sync import Fig7Config, run_fig7
from .lockbench import LockBenchConfig, run_lock_series

__all__ = ["run_validation", "ValidationCheck"]


@dataclass
class ValidationCheck:
    name: str
    paper_claim: str
    measured: float
    low: float
    high: float

    @property
    def passed(self) -> bool:
        return self.low <= self.measured <= self.high


def run_validation(quick: bool = True) -> Tuple[List[ValidationCheck], str]:
    """Run all headline checks; returns (checks, rendered_report)."""
    checks: List[ValidationCheck] = []

    fig7_iterations = 12 if quick else 100
    fig7 = run_fig7(Fig7Config(nprocs_list=(2, 16), iterations=fig7_iterations))
    checks.append(
        ValidationCheck(
            "fig7 factor @16",
            "GA_Sync up to ~9x faster",
            fig7.factor(16),
            6.0,
            12.0,
        )
    )
    checks.append(
        ValidationCheck(
            "fig7 factor @2",
            "new wins at every size",
            fig7.factor(2),
            1.0,
            4.0,
        )
    )
    # A server that spins instead of sleeping skips the wake-ups, which
    # shortens the original implementation's convoy but not its N-1 fence
    # round trips.
    spinning = run_fig7(
        Fig7Config(
            nprocs_list=(16,),
            iterations=fig7_iterations,
            params=myrinet2000(server_spin_us=1000.0),
        )
    )
    checks.append(
        ValidationCheck(
            "fig7 factor @16, spinning server",
            "linear-vs-log gap survives a spin-forever server",
            spinning.factor(16),
            3.0,
            12.0,
        )
    )

    series = run_lock_series(
        LockBenchConfig(
            nprocs_list=(1, 8), iterations=150 if quick else 400
        )
    )
    factor8 = series["hybrid"][8].roundtrip_us / series["mcs"][8].roundtrip_us
    checks.append(
        ValidationCheck(
            "fig8 factor @8", "lock round-trip up to ~1.25x", factor8, 1.05, 1.6
        )
    )
    factor1 = series["hybrid"][1].roundtrip_us / series["mcs"][1].roundtrip_us
    checks.append(
        ValidationCheck(
            "fig8 factor @1", "current wins at one process", factor1, 0.4, 0.999
        )
    )
    checks.append(
        ValidationCheck(
            "fig9 acquire ratio @8",
            "new acquire always faster",
            series["hybrid"][8].acquire_us / series["mcs"][8].acquire_us,
            1.0,
            2.0,
        )
    )
    checks.append(
        ValidationCheck(
            "fig10 release ratio @8",
            "new release slower (the CAS)",
            series["mcs"][8].release_us / series["hybrid"][8].release_us,
            1.01,
            100.0,
        )
    )
    checks.append(
        ValidationCheck(
            "fig10 release decay",
            "new release falls with contention",
            series["mcs"][1].release_us / series["mcs"][8].release_us,
            1.5,
            50.0,
        )
    )

    crossover = run_crossover(
        nprocs=16, targets_list=(1, 2, 15), iterations=6 if quick else 20
    )
    crossover_at = crossover.crossover_targets() or -1
    checks.append(
        ValidationCheck(
            "3.1.2 crossover targets",
            "linear wins below ~log2(16)/2 = 2",
            float(crossover_at),
            1.0,
            4.0,
        )
    )
    # The priced patterns behind algorithm="auto" replace a fixed threshold.
    predicted = predicted_crossover_targets(myrinet2000(), 16)
    checks.append(
        ValidationCheck(
            "3.1.2 crossover predicted",
            "cost model predicts the crossover within one target",
            float(abs(predicted - crossover_at)),
            0.0,
            1.0,
        )
    )

    opt = run_release_opt(
        nprocs_list=(1,), cfg=LockBenchConfig(iterations=100 if quick else 300)
    )
    checks.append(
        ValidationCheck(
            "section-5 release opt",
            "CAS removal collapses uncontended release",
            opt["mcs"][1].release_us / max(opt["mcs-opt"][1].release_us, 1e-9),
            2.0,
            10_000.0,
        )
    )

    # The fuzzer's oracle must not be vacuous: every seeded mutant caught
    # within a short budget, and a small seed window runs clean.
    from ..fuzz.campaign import run_campaign
    from ..fuzz.selftest import MUTANTS, run_self_test

    self_test = run_self_test(budget=4 if quick else 12)
    checks.append(
        ValidationCheck(
            "fuzz oracle mutants",
            "self-test catches every seeded bug",
            float(sum(r.caught for r in self_test.results)),
            float(len(MUTANTS)),
            float(len(MUTANTS)),
        )
    )
    campaign = run_campaign(num_seeds=4 if quick else 25, do_shrink=False)
    checks.append(
        ValidationCheck(
            "fuzz seed window",
            "random schedules expose no invariant violation",
            0.0 if campaign.ok() else 1.0,
            0.0,
            0.0,
        )
    )

    rows = [["check", "paper claim", "measured", "accept range", "status"]]
    for check in checks:
        rows.append(
            [
                check.name,
                check.paper_claim,
                f"{check.measured:.2f}",
                f"[{check.low:g}, {check.high:g}]",
                "PASS" if check.passed else "FAIL",
            ]
        )
    verdict = (
        "ALL CHECKS PASSED"
        if all(c.passed for c in checks)
        else "VALIDATION FAILED"
    )
    report = (
        "== Reproduction self-check ==\n"
        + format_table(rows)
        + f"\n{verdict} ({sum(c.passed for c in checks)}/{len(checks)})"
    )
    return checks, report
