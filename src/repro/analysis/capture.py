"""Ambient trace capture for the ``--trace-out`` CLI option.

Experiments build their own :class:`~repro.runtime.cluster.ClusterRuntime`
instances deep inside the harness, so the CLI cannot thread a monitor
through every call path.  Instead it *enables* capture here before
dispatching the experiment; every runtime constructed while capture is
enabled attaches a fresh :class:`~repro.analysis.monitor.SyncMonitor`, and
the CLI flushes all collected events to one JSONL file afterwards.

The monitor module is imported by :func:`attach` once capture is enabled,
not here: every runtime asks this module whether to attach, and a run
without ``--trace-out`` loads no part of RMCSan but this file.

Capture is process-global and intended for the CLI only.  A runtime
built with its own monitor (the sanitizer's targets, the fuzzer's and
RMCheck's runs) keeps it, and capture records that one instead.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from .monitor import SyncMonitor

__all__ = ["enable", "disable", "discard", "attach", "flush"]

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


def discard() -> None:
    """Disable capture and delete the file :func:`enable` created, so a run
    that did not finish leaves no partial trace behind."""
    path = _path
    disable()
    if path is not None:
        Path(path).unlink(missing_ok=True)


def attach(env, monitor: Optional[SyncMonitor] = None) -> Optional[SyncMonitor]:
    """Install ``monitor`` on ``env`` — or, if capture is enabled and none
    was given, a fresh one — and record it while capture is enabled.
    Returns the installed monitor (``None``: none).

    Called by :class:`~repro.runtime.cluster.ClusterRuntime` during wiring.
    """
    if monitor is None:
        if _path is None:
            return None
        from .monitor import SyncMonitor

        monitor = SyncMonitor()
    monitor.install(env)
    if _path is not None:
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
