"""Hierarchical topology subsystem: multi-level network model and
topology-aware synchronization algorithms.

* :mod:`repro.topo.hierarchy` — the multi-level model
  (:class:`Hierarchy` / :class:`LevelSpec`) consumed by the fabric.
* :mod:`repro.topo.spec` — ``--topo`` spec-string parsing.
* :mod:`repro.topo.algorithms` — the stage bodies of the combined
  fence+barriers: the paper's exchange, the k-ary combining tree,
  dissemination, and the two-level leader-based one (imported by ``repro.armci.barrier``; do not import it
  here, it would cycle through ``net.params``).
* :mod:`repro.topo.coalesce` — per-node actor coalescing for scalebench
  runs at N=16384.
"""

from .hierarchy import Hierarchy, LevelSpec, two_level
from .spec import parse_topo_spec

__all__ = ["Hierarchy", "LevelSpec", "two_level", "parse_topo_spec"]
