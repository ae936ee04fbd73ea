"""Deterministic discrete-event simulation kernel (generator coroutines).

See :mod:`repro.sim.core` for the event loop and process model,
:mod:`repro.sim.primitives` for stores/resources/broadcasts, and
:mod:`repro.sim.trace` for measurement helpers.
"""

from .core import (
    AllOf,
    AnyOf,
    Call,
    Condition,
    ConditionValue,
    Environment,
    Event,
    Process,
    SimulationError,
    StopProcess,
    Timeout,
    PRIORITY_LAZY,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from .primitives import Broadcast, FilterStore, Resource, Store
from .timeline import Interval, Timeline
from .trace import SampleStats, Stopwatch, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Broadcast",
    "Call",
    "Condition",
    "ConditionValue",
    "Environment",
    "Event",
    "FilterStore",
    "Interval",
    "Timeline",
    "Process",
    "Resource",
    "SampleStats",
    "SimulationError",
    "StopProcess",
    "Stopwatch",
    "Store",
    "Timeout",
    "Tracer",
    "PRIORITY_LAZY",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
]
