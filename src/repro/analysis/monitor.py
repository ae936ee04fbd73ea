"""Run-time event collection for the happens-before checker.

A :class:`SyncMonitor` is installed *on the environment* (attribute
``_sync_monitor``) before the cluster is wired up; the instrumented layers
(:mod:`repro.runtime.memory`, the server, the ARMCI client, locks,
collectives) look the attribute up with ``getattr`` and stay entirely
silent — one ``is None`` test per call site — when no monitor is present,
so sanitizer-off runs are byte-identical to uninstrumented ones.

The monitor never advances simulated time and never yields: it only
appends :class:`~repro.analysis.events.ProtoEvent` records to a
:class:`~repro.sim.trace.Tracer`, in observation order, for offline
analysis by :class:`~repro.analysis.hb.HBAnalyzer`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Optional, Set, Tuple

from ..sim.trace import Tracer
from .events import ProtoEvent

__all__ = ["SyncMonitor", "MONITOR_ATTR"]

#: Environment attribute under which the active monitor is published.
MONITOR_ATTR = "_sync_monitor"


class SyncMonitor:
    """Collects structured protocol events from an instrumented run."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.env = None
        self._actors: Dict[Any, str] = {}
        self._next_op = 0
        #: Cells with release/acquire (C11-atomic-like) semantics: lock
        #: words, ``op_done`` counters, notify counters.  Exempt from race
        #: checking; their reads synchronize with their last write.
        self._sync_cells: Set[Tuple[str, int]] = set()
        self._atomic_depth = 0
        self._bulk_depth = 0

    # -- installation --------------------------------------------------------

    def install(self, env) -> "SyncMonitor":
        """Attach to ``env``.  Must run before regions/servers are built."""
        from ..sim.core import Process

        self.env = env
        setattr(env, MONITOR_ATTR, self)
        # Wrap process creation (via the environment's factory hook, since
        # Environment uses __slots__) so spawned helpers (optimistic-release
        # processes, token daemons) inherit their spawner's actor label.

        def process_with_inheritance(generator, name=None):
            parent = self._actors.get(env.active_process)
            proc = Process(env, generator, name=name)
            if parent is not None:
                self._actors.setdefault(proc, parent)
            return proc

        env.process_factory = process_with_inheritance
        return self

    # -- actors --------------------------------------------------------------

    def register_process(self, proc, actor: str) -> None:
        """Name a process's actor explicitly (overrides inheritance)."""
        self._actors[proc] = actor

    def current_actor(self) -> Optional[str]:
        """Actor of the running process; ``None`` outside any process."""
        proc = self.env.active_process if self.env is not None else None
        if proc is None:
            return None
        actor = self._actors.get(proc)
        if actor is None:
            # Unregistered process: use its kernel name as a distinct actor
            # rather than guessing (sound: separate actor = no false order).
            actor = f"proc:{proc.name}"
            self._actors[proc] = actor
        return actor

    # -- event emission ------------------------------------------------------

    def next_op_id(self) -> int:
        self._next_op += 1
        return self._next_op

    def emit(self, kind: str, actor: Optional[str] = None, **data) -> None:
        if actor is None:
            actor = self.current_actor()
            if actor is None:
                return
        now = self.env.now if self.env is not None else 0.0
        self.tracer.emit(ProtoEvent(kind=kind, time=now, actor=actor, data=data))

    @property
    def events(self):
        return self.tracer.events

    def analyze(self):
        """Run the happens-before engine over the collected events."""
        from .hb import HBAnalyzer

        return HBAnalyzer(sync_cells=set(self._sync_cells)).analyze(self.events)

    # -- sync cells & access modes ------------------------------------------

    def mark_sync(self, region, addr: int, count: int = 1) -> None:
        for offset in range(count):
            self._sync_cells.add((region.name, addr + offset))

    def is_sync(self, region_name: str, addr: int) -> bool:
        return (region_name, addr) in self._sync_cells

    @contextmanager
    def atomic(self):
        """Accesses inside this scope are atomic (acc/rmw application)."""
        self._atomic_depth += 1
        try:
            yield
        finally:
            self._atomic_depth -= 1

    @contextmanager
    def bulk(self):
        """Suppress per-cell events (a ranged event was already emitted)."""
        self._bulk_depth += 1
        try:
            yield
        finally:
            self._bulk_depth -= 1

    def _mode(self, region_name: str, addr: int, count: int) -> str:
        if count == 1 and self.is_sync(region_name, addr):
            return "sync"
        if self._atomic_depth > 0:
            return "atomic"
        return "plain"

    # -- region hooks --------------------------------------------------------

    def on_read(self, region, addr: int, count: int = 1) -> None:
        if self._bulk_depth:
            return
        self.emit(
            "mem_read",
            region=region.name,
            addr=addr,
            n=count,
            mode=self._mode(region.name, addr, count),
        )

    def on_write(self, region, addr: int, count: int = 1) -> None:
        if self._bulk_depth:
            return
        self.emit(
            "mem_write",
            region=region.name,
            addr=addr,
            n=count,
            mode=self._mode(region.name, addr, count),
        )
