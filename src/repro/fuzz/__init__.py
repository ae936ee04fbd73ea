"""Scenario fuzzer: randomized fault/crash/topology schedules.

The paper's protocols are exercised by hand-picked experiments elsewhere
in the tree; this package instead *searches* for schedules that break
them.  A single integer seed deterministically expands into a complete
scenario — workload, synchronization algorithm, link-fault mix, crash
schedule, topology — which runs under the RMCSan monitor plus a set of
workload-level invariant checks (survivor memory, mutual exclusion,
FIFO-among-survivors, completion).  Failures replay exactly from the
seed, shrink to a minimal still-failing schedule, and land in a
regression corpus replayed by the test suite.

Layering:

* :mod:`.scenario` — pure ``seed -> Scenario`` expansion + JSON codec,
* :mod:`.runner`   — run one scenario, collect violations,
* :mod:`.shrink`   — greedy minimization of a failing scenario,
* :mod:`.selftest` — seeded bug mutants that validate the oracle,
* :mod:`.campaign` — the fuzz loop, replay, and corpus management.
"""

from .._lazy import lazy_exports

# Eager: the function shares its submodule's name, and importing the
# submodule later would rebind ``repro.fuzz.shrink`` to the module.
from .shrink import shrink

__all__, __getattr__ = lazy_exports(__name__, {
    ".campaign": "CampaignResult, replay_corpus, replay_seed, run_campaign",
    ".runner": "FuzzOutcome, run_scenario",
    ".scenario": "Scenario, generate, scenario_from_json, scenario_to_json",
    ".selftest": "MUTANTS, run_self_test",
})
__all__.append("shrink")
