"""Ambient trace capture for the ``--trace-out`` CLI option.

Experiments build their own :class:`~repro.runtime.cluster.ClusterRuntime`
instances deep inside the harness, so the CLI cannot thread a monitor
through every call path.  Instead it *enables* capture here before
dispatching the experiment; every runtime constructed while capture is
enabled attaches a fresh :class:`~repro.analysis.monitor.SyncMonitor`, and
the CLI flushes all collected events to one JSONL file afterwards.

Capture is process-global and intended for the CLI only; tests and the
sanitizer pass monitors explicitly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .monitor import SyncMonitor

__all__ = ["enable", "disable", "enabled", "attach", "flush"]

_path: Optional[str] = None
_captures: List[Tuple[int, SyncMonitor]] = []


def enable(path: str) -> None:
    """Start capturing: truncate ``path`` and attach to future runtimes."""
    global _path
    with open(path, "w", encoding="utf-8"):
        pass
    _path = path
    _captures.clear()


def disable() -> None:
    global _path
    _path = None
    _captures.clear()


def enabled() -> bool:
    return _path is not None


def attach(env) -> Optional[SyncMonitor]:
    """Install a monitor on ``env`` if capture is enabled (else ``None``).

    Called by :class:`~repro.runtime.cluster.ClusterRuntime` during wiring.
    """
    if _path is None:
        return None
    monitor = SyncMonitor().install(env)
    _captures.append((len(_captures) + 1, monitor))
    return monitor


def flush() -> Optional[Tuple[str, int, int]]:
    """Write all captured runs to the enabled path and disable capture.

    Returns ``(path, runs, events)`` or ``None`` if capture was off.
    """
    global _path
    if _path is None:
        return None
    path = _path
    total = 0
    for run_no, monitor in _captures:
        total += monitor.tracer.dump_jsonl(
            path, header={"run": run_no, "events": len(monitor.events)}
        )
    runs = len(_captures)
    disable()
    return (path, runs, total)
