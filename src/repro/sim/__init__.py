"""Deterministic discrete-event simulation kernel (generator coroutines).

See :mod:`repro.sim.core` for the event loop and process model,
:mod:`repro.sim.primitives` for stores and broadcasts, and
:mod:`repro.sim.trace` for measurement helpers.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".core": "AllOf, Call, Condition, ConditionValue, Environment, Event, Process, "
    "SimulationError, Timeout, PRIORITY_LAZY, PRIORITY_NORMAL, PRIORITY_URGENT",
    ".primitives": "Broadcast, FilterStore, Store",
    ".trace": "SampleStats, Stopwatch, Tracer",
})
