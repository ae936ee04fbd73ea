"""Property test: the dependence relation is sound on real schedules.

For 200 fuzzer-generated small scenarios, take the first choice point of
the default exploration run, swap the chosen delivery with a co-enabled
delivery classified *independent* of it, and re-run.  If the
classification is right, the swap commutes: the RMCSan verdict and the
timing-independent end-state hash must both be unchanged.  A single
mismatch means :func:`repro.mc.strategy.independent` commutes deliveries
that actually conflict — the exact unsoundness that would let the
explorer prune a buggy schedule.

Window 0 keeps the swap an *exact* co-enabled tie, so not even event
timing differs between the two runs.
"""

from __future__ import annotations

from repro.fuzz.runner import run_scenario
from repro.fuzz.scenario import generate
from repro.mc.strategy import RecordingStrategy, independent, label_key

SEEDS = range(200)
SIM_CAP_US = 20_000.0


def _first_independent_swap(strategy):
    """``(depth, alt)`` for the first swappable choice point, or ``None``."""
    for d, (options, chosen, _sleep) in enumerate(strategy.decisions):
        for alt in options:
            if alt != chosen and independent(alt, chosen):
                return d, alt
    return None


def test_swapping_independent_deliveries_preserves_verdict_and_state():
    swapped_count = 0
    for seed in SEEDS:
        scenario = generate(seed, constrain={"nprocs": 3 + seed % 2})
        base_strategy = RecordingStrategy(window=0.0)
        base = run_scenario(
            scenario, strategy=base_strategy, sim_cap_us=SIM_CAP_US
        )
        swap = _first_independent_swap(base_strategy)
        if swap is None:
            continue  # no exact-tie independent pair in this scenario
        depth, alt = swap
        prefix = tuple(label_key(label) for label in base_strategy.chosen()[:depth]) + (
            label_key(alt),
        )
        swapped_strategy = RecordingStrategy(prefix=prefix, window=0.0)
        swapped = run_scenario(
            scenario, strategy=swapped_strategy, sim_cap_us=SIM_CAP_US
        )
        assert not swapped_strategy.diverged, f"seed {seed}: swap unreachable"
        swapped_count += 1
        assert swapped.ok() == base.ok(), (
            f"seed {seed}: verdict changed by independent swap at depth "
            f"{depth}: {base.kinds()} -> {swapped.kinds()}"
        )
        assert swapped.end_state_hash == base.end_state_hash, (
            f"seed {seed}: end state changed by independent swap at depth "
            f"{depth} ({alt!r})"
        )
    # The property must not hold vacuously: a healthy fraction of the
    # fuzzed scenarios actually contains an exact-tie independent pair.
    assert swapped_count >= 40, f"only {swapped_count}/200 scenarios swapped"
