"""Traced pass: host self time and calls per layer of the simulator stack.

The spans are recorded from here, outside the program, by the interpreter's
profiling hook (``cProfile``) around every Python call made while a cell
runs.  A layer is one of this repo's modules (or a whole package where the
package is the layer); a layer's self time is the summed ``tottime`` of the
functions whose source file lies in it, plus the time of the builtin/C calls
those functions make (heap operations, dict access, generator ``send``),
which the profiler reports per caller.

``cProfile`` charges a fixed cost to every Python call and none to the work
inside C code, so traced runs are several times slower and the *shares* are
indicative; the call counts repeat exactly.
"""

from __future__ import annotations

import cProfile
from typing import Any, Callable, Dict, Tuple

#: Layer name -> path under ``src/repro/`` (a file, or a package ending in
#: ``/``).  Everything else (experiment glue, ``runtime.cluster``, message
#: dataclasses, the standard library, this benchmark) is ``other``.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sim.core", "sim/core.py"),
    ("sim.primitives", "sim/primitives.py"),
    ("net.fabric", "net/fabric.py"),
    ("net.reliable", "net/reliable.py"),
    ("net.faults", "net/faults.py"),
    ("runtime.server", "runtime/server.py"),
    ("runtime.memory", "runtime/memory.py"),
    ("runtime.membership", "runtime/membership.py"),
    ("mp", "mp/"),
    ("armci.api", "armci/api.py"),
    ("armci.barrier", "armci/barrier.py"),
    ("armci.fence", "armci/fence.py"),
    ("ga", "ga/"),
    ("locks", "locks/"),
    ("nic.engine", "nic/engine.py"),
    ("topo.algorithms", "topo/algorithms.py"),
    ("topo.coalesce", "topo/coalesce.py"),
    ("analysis", "analysis/"),
    ("fuzz", "fuzz/"),
    ("mc", "mc/"),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _path in LAYERS)
OTHER = "other"

_PACKAGE_MARK = "/repro/"


def layer_of(filename: str) -> str:
    """The layer owning source file ``filename`` (``other`` if none)."""
    path = filename.replace("\\", "/")
    at = path.rfind(_PACKAGE_MARK)
    if at < 0:
        return OTHER
    rel = path[at + len(_PACKAGE_MARK):]
    for name, prefix in LAYERS:
        if rel == prefix or (prefix.endswith("/") and rel.startswith(prefix)):
            return name
    return OTHER


class LayerProfile:
    """Accumulates per-layer self seconds and call counts over traced calls."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` with the profiling hook installed."""
        self._profile.enable()
        try:
            return fn(*args)
        finally:
            self._profile.disable()

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``(self_seconds, calls)`` per layer name (plus ``other``)."""
        self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self_s[OTHER] = 0.0
        calls: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
        for entry in self._profile.getstats():
            code = entry.code
            if isinstance(code, str):
                # A builtin: its own time is charged to its Python callers
                # (their ``calls`` sub-entries); only the builtins it calls
                # in turn are counted here, under ``other``.
                layer = OTHER
                own = 0.0
            else:
                layer = layer_of(code.co_filename)
                own = entry.inlinetime
                if layer != OTHER:
                    calls[layer] += entry.callcount
            for sub in entry.calls or ():
                if isinstance(sub.code, str):
                    own += sub.inlinetime
            self_s[layer] += own
        return self_s, calls
