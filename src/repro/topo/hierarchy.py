"""Multi-level network hierarchy: core -> SMP node -> switch -> cluster.

The flat model charges every inter-node message the same
``inter_latency_us``.  Real clusters are not flat: a pair of nodes under
the same leaf switch exchange messages in a few microseconds, while a
pair in different racks crosses one or more uplinks, each adding latency
and (over oversubscribed links) contention.  A :class:`Hierarchy`
describes that structure as an ordered tuple of :class:`LevelSpec`
entries, innermost first:

::

    levels[0]  "switch"   groups of  arity_0             nodes
    levels[1]  "rack"     groups of  arity_0 * arity_1   nodes
    ...
    levels[-1] outermost  everything else

The *crossing level* of a node pair ``(a, b)`` is the innermost level
whose group contains both: with block node numbering, level ``i`` covers
groups of ``cap_i = arity_0 * ... * arity_i`` consecutive nodes, so the
crossing level is the smallest ``i`` with ``a // cap_i == b // cap_i``
(pairs beyond the outermost capacity charge the outermost level).  The
fabric then prices the message from that level's ``(latency_us,
per_byte_us, contention)`` instead of the single flat wire latency.

Per-level parameters *inherit* from the base :class:`NetworkParams`:
``latency_us=None`` means "this level costs the flat
``inter_latency_us``", and ``per_byte_us=None`` likewise inherits the
flat serialization cost; ``contention`` multiplies the effective
per-byte cost to model oversubscribed uplinks.  A degenerate single
level with both fields inherited therefore reproduces the flat model's
arithmetic exactly (asserted byte-for-byte in tests).

The model intentionally stays below ``Topology`` (which maps *ranks* to
*nodes*); a hierarchy groups *nodes*.  The innermost "core -> SMP node"
tier of the paper's machines is already modeled by
``procs_per_node``/``intra_latency_us`` and is not repeated here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["LevelSpec", "Hierarchy", "two_level"]


@dataclass(frozen=True)
class LevelSpec:
    """One tier of the hierarchy (see module docstring for semantics).

    ``arity`` is how many groups of the previous tier one group of this
    tier contains (for the innermost level: how many nodes per group).
    ``latency_us``/``per_byte_us`` of ``None`` inherit the base
    ``NetworkParams`` values; ``contention >= 1`` scales the effective
    per-byte cost of links crossing this level.
    """

    name: str
    arity: int
    latency_us: Optional[float] = None
    per_byte_us: Optional[float] = None
    contention: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"level name must be a non-empty string, got {self.name!r}")
        if self.arity < 2:
            raise ValueError(
                f"level {self.name!r}: arity must be >= 2, got {self.arity}"
            )
        # ``not lo <= x < inf`` also refuses NaN, which ``x < lo`` lets through.
        for what in ("latency_us", "per_byte_us"):
            value = getattr(self, what)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(
                    f"level {self.name!r}: {what} must be non-negative and "
                    f"finite, got {value}"
                )
        if not 1.0 <= self.contention < math.inf:
            raise ValueError(
                f"level {self.name!r}: contention must be >= 1 and finite, "
                f"got {self.contention}"
            )


@dataclass(frozen=True)
class Hierarchy:
    """An ordered multi-level topology, innermost level first."""

    levels: Tuple[LevelSpec, ...]
    #: Cumulative group sizes (nodes per group at each level), derived.
    caps: Tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("hierarchy needs at least one level")
        if not all(isinstance(lv, LevelSpec) for lv in self.levels):
            raise TypeError("hierarchy levels must be LevelSpec instances")
        names = [lv.name for lv in self.levels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate level names: {names}")
        caps: List[int] = []
        cap = 1
        for lv in self.levels:
            cap *= lv.arity
            caps.append(cap)
        object.__setattr__(self, "caps", tuple(caps))

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    def crossing_level(self, node_a: int, node_b: int) -> int:
        """Index of the innermost level whose group holds both nodes.

        Pairs in no common group (ids beyond the outermost capacity)
        charge the outermost level.  Same-node pairs are the caller's
        fast path (intra-node never consults the hierarchy).
        """
        for i, cap in enumerate(self.caps):
            if node_a // cap == node_b // cap:
                return i
        return len(self.caps) - 1

    @functools.lru_cache(maxsize=64, typed=True)
    def resolve(self, base_latency_us: float, base_per_byte_us: float):
        """Per-level ``(latency_us, per_byte_us)`` with inheritance applied.

        Returns two tuples indexed by level; ``contention`` is folded
        into the per-byte figure (an oversubscribed uplink serializes
        proportionally more per payload byte).  Resolved once per
        ``(hierarchy, base)``: the fabric and the analytic estimates read
        the same tables.
        """
        lat = tuple(
            lv.latency_us if lv.latency_us is not None else base_latency_us
            for lv in self.levels
        )
        per_byte = tuple(
            (lv.per_byte_us if lv.per_byte_us is not None else base_per_byte_us)
            * lv.contention
            for lv in self.levels
        )
        return lat, per_byte

    def link(
        self,
        node_a: int,
        node_b: int,
        base_latency_us: float,
        base_per_byte_us: float,
    ) -> Tuple[float, float]:
        """``(latency_us, per_byte_us)`` of the node pair's crossing level."""
        lat, per_byte = self.resolve(base_latency_us, base_per_byte_us)
        level = self.crossing_level(node_a, node_b)
        return lat[level], per_byte[level]

    def label(self) -> str:
        """Compact single-line form, e.g. ``switch:8 > cluster:4096``."""
        return " > ".join(f"{lv.name}:{lv.arity}" for lv in self.levels)

    def describe(self) -> str:
        """One line per level, for CLI/doc output."""
        lines = []
        for lv, cap in zip(self.levels, self.caps):
            lat = "inherit" if lv.latency_us is None else f"{lv.latency_us}us"
            pb = "inherit" if lv.per_byte_us is None else f"{lv.per_byte_us}us/B"
            lines.append(
                f"{lv.name}: {cap} nodes/group, latency {lat}, "
                f"per-byte {pb}, contention x{lv.contention}"
            )
        return "\n".join(lines)


def two_level(
    switch_arity: int,
    uplink_latency_us: float = 26.0,
    uplink_contention: float = 1.0,
    cluster_arity: int = 4096,
) -> Hierarchy:
    """Convenience: leaf switches of ``switch_arity`` nodes under one spine.

    The leaf level inherits the flat inter-node parameters; crossing the
    spine costs ``uplink_latency_us`` with optional per-byte contention.
    """
    return Hierarchy(
        levels=(
            LevelSpec(name="switch", arity=switch_arity),
            LevelSpec(
                name="cluster",
                arity=cluster_arity,
                latency_us=uplink_latency_us,
                contention=uplink_contention,
            ),
        )
    )
