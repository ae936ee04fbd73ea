"""RMCSan: dynamic happens-before checking and static lint for the sync stack.

Two engines:

* :mod:`repro.analysis.monitor` + :mod:`repro.analysis.hb` — a run-time
  monitor that collects structured protocol events (memory accesses,
  operation issue/apply/complete, fences, barriers, locks) into the
  simulation :class:`~repro.sim.trace.Tracer`, and an offline vector-clock
  engine that rebuilds the happens-before order and reports data races,
  fence-counting violations, lock-safety violations and deadlocks.
* :mod:`repro.analysis.lint` — an ``ast``-based static pass over the
  package flagging simulation-specific hazards (sub-generator calls missing
  ``yield from``, unseeded randomness / wall-clock reads, ``op_done``
  mutation outside the server).

Both are wired into the ``repro check`` CLI subcommand; see
``docs/analysis.md`` for the model and the violation taxonomy.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".events": "ProtoEvent",
    ".hb": "HBAnalyzer, SanReport, Violation",
    ".lint": "LintFinding, lint_paths, lint_source, run_lint",
    ".monitor": "SyncMonitor",
    ".sanitize": "run_sanitized_target",
})
