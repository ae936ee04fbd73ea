"""Cluster runtime substrate: memory regions, atomics, server threads.

Note: import :mod:`repro.runtime.cluster` (or :class:`repro.ClusterRuntime`)
for the fully wired system; this package root stays lightweight to keep the
``armci`` <-> ``runtime`` import graph acyclic.
"""

from .._lazy import lazy_exports
from . import atomics

__all__, __getattr__ = lazy_exports(__name__, {
    ".memory": "GlobalAddress, NULL_PTR, Region",
})
__all__.append("atomics")
