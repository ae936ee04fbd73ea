"""Lightweight tracing and measurement helpers for simulations.

The experiment harness measures *simulated* time.  :class:`Stopwatch`
accumulates interval samples in virtual microseconds; :class:`Tracer`
collects the structured protocol events a run emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional

from .core import Environment

__all__ = ["EVENT_LIMIT", "SampleStats", "Stopwatch", "TraceOverflow", "Tracer"]

#: Most structured events one :class:`Tracer` holds.  A run that emits more
#: fails with :class:`TraceOverflow` rather than keeping a truncated trace
#: that every consumer would take for the whole run.
EVENT_LIMIT = 2_000_000


class TraceOverflow(RuntimeError):
    """A run emitted more than :data:`EVENT_LIMIT` structured events."""


@dataclass
class SampleStats:
    """Summary statistics over a set of duration samples (microseconds)."""

    count: int
    mean: float
    minimum: float
    maximum: float
    stddev: float
    total: float

    @classmethod
    def from_samples(cls, samples: List[float]) -> "SampleStats":
        if not samples:
            return cls(0, float("nan"), float("nan"), float("nan"), float("nan"), 0.0)
        n = len(samples)
        total = sum(samples)
        mean = total / n
        if n > 1:
            # Sample (n-1) variance: these are measurements drawn from the
            # run, not the whole population of possible intervals.
            var = sum((s - mean) ** 2 for s in samples) / (n - 1)
            stddev = math.sqrt(var)
        else:
            stddev = 0.0
        return cls(n, mean, min(samples), max(samples), stddev, total)


class Stopwatch:
    """Accumulates interval samples of simulated time.

    Usage inside a process::

        sw.start()
        ...  # yield some events
        sw.stop()
    """

    def __init__(self, env: Environment, name: str = "stopwatch"):
        self.env = env
        self.name = name
        self.samples: List[float] = []
        self._started_at: Optional[float] = None

    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError(f"stopwatch {self.name!r} already running")
        self._started_at = self.env.now

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError(f"stopwatch {self.name!r} is not running")
        dt = self.env.now - self._started_at
        self._started_at = None
        self.samples.append(dt)
        return dt

    def stats(self) -> SampleStats:
        return SampleStats.from_samples(self.samples)

    def mean(self) -> float:
        return self.stats().mean

    def reset(self) -> None:
        self.samples.clear()
        self._started_at = None


@dataclass
class Tracer:
    """Collects *structured protocol events* pushed explicitly via :meth:`emit`.

    An event is any object with ``kind``/``time``/``actor`` attributes and a
    ``to_dict()`` method (see ``repro.analysis.events``).  These feed the
    RMCSan happens-before engine and the ``--trace-out`` JSONL dump.
    """

    events: List[Any] = field(default_factory=list)

    def emit(self, event: Any) -> None:
        """Append one structured protocol event (order = emission order)."""
        if len(self.events) >= EVENT_LIMIT:
            raise TraceOverflow(f"a run emitted more than {EVENT_LIMIT} protocol events")
        self.events.append(event)

    def dump_jsonl(self, path: str, header: Optional[dict] = None) -> int:
        """Append the structured events to ``path`` as JSON lines.

        Returns the number of event lines written.  ``header``, when given,
        is written first as its own line (used to delimit runs in a file
        shared by several experiments).
        """
        import json

        with open(path, "a", encoding="utf-8") as fh:
            if header is not None:
                fh.write(json.dumps(header) + "\n")
            for event in self.events:
                fh.write(json.dumps(event.to_dict()) + "\n")
        return len(self.events)
