"""Deterministic discrete-event simulation kernel (generator coroutines).

See :mod:`repro.sim.core` for the event loop and process model,
:mod:`repro.sim.primitives` for stores and broadcasts, and
:mod:`repro.sim.trace` for measurement helpers.
"""

from .core import (
    AllOf,
    Call,
    Condition,
    ConditionValue,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
    PRIORITY_LAZY,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from .primitives import Broadcast, FilterStore, Store
from .trace import SampleStats, Stopwatch, Tracer

__all__ = [
    "AllOf",
    "Broadcast",
    "Call",
    "Condition",
    "ConditionValue",
    "Environment",
    "Event",
    "FilterStore",
    "Process",
    "SampleStats",
    "SimulationError",
    "Stopwatch",
    "Store",
    "Timeout",
    "Tracer",
    "PRIORITY_LAZY",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
]
