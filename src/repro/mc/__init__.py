"""RMCheck: stateless model checking for the synchronization protocols.

RMCheck drives the existing simulator through *all* inequivalent message
delivery schedules of a small scenario (N=2..4, a few ops) and runs
RMCSan plus the fuzzer's end-state invariants on every one.  Where the
fuzzer (:mod:`repro.fuzz`) samples random fault timings, RMCheck
systematically enumerates delivery *orders* — the interleaving bugs the
fuzzer only hits by luck.

Three pieces:

* :mod:`repro.mc.strategy` — the :class:`RecordingStrategy` plugged into
  the simulator's controlled-scheduler hook
  (:class:`repro.sim.core.SchedulerStrategy`): it replays a forced
  choice prefix, then explores fresh choices first-come while carrying a
  sleep set for partial-order reduction.
* :mod:`repro.mc.explore` — the DFS explorer: schedule tree walk with
  sleep-set + dependence-based POR, per-run budget, end-state and trace
  deduplication, and minimal counterexample extraction/replay.
* :mod:`repro.mc.targets` — the first-class checked protocols (NIC
  fence+barrier crash-free and 1-crash, ticket/MCS lock handoff, the
  reliable-delivery layer) as named small scenarios.
* :mod:`repro.mc.selftest` — the fuzzer's three seeded mutants promoted
  into exploration oracle tests at minimal N.

See ``docs/model_checking.md`` for the exploration semantics and the
dependence relation.
"""

from .._lazy import lazy_exports

# Eager: the function shares its submodule's name, and importing the
# submodule later would rebind ``repro.mc.explore`` to the module.
from .explore import explore

__all__, __getattr__ = lazy_exports(__name__, {
    ".explore": "MCResult, load_counterexample, replay_counterexample",
    ".selftest": "MC_MUTANT_PINS, run_mc_self_test",
    ".strategy": "RecordingStrategy, canonical_trace_hash, independent, label_key",
    ".targets": "TARGETS, get_target",
})
__all__.append("explore")
