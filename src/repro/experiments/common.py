"""Shared experiment infrastructure: runners, results, and table formatting.

Every experiment reports *simulated* microseconds (deterministic; no
wall-clock noise) in the same shape as the paper's figures: one series per
implementation over the process counts, plus the factor-of-improvement
series of the (b) panels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..net.params import NetworkParams, myrinet2000

__all__ = [
    "Comparison",
    "DEFAULT_NPROCS",
    "SeriesTable",
    "format_table",
]

#: The paper evaluates 1..16 processes on 16 nodes.
DEFAULT_NPROCS: Tuple[int, ...] = (2, 4, 8, 16)


class SeriesTable:
    """What every per-variant result table does with its series.

    Mixed into a dataclass with ``title``, ``metric``, ``notes`` and
    ``values[variant][nprocs] -> microseconds`` fields and a ``to_rows()``.
    """

    def record(self, variant: str, nprocs: int, value_us: float) -> None:
        self.values.setdefault(variant, {})[nprocs] = value_us

    def nprocs_list(self) -> List[int]:
        keys = set()
        for series in self.values.values():
            keys.update(series)
        return sorted(keys)

    def get(self, variant: str, nprocs: int) -> float:
        return self.values[variant][nprocs]

    def render(self) -> str:
        lines = [f"== {self.title} ==", f"metric: {self.metric}"]
        lines.append(format_table(self.to_rows()))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


@dataclass
class Comparison(SeriesTable):
    """Two series over process counts + derived improvement factors.

    ``values[variant][nprocs] -> microseconds``.  ``baseline`` names the
    variant the paper calls "current"; ``factor(n)`` is baseline/improved,
    i.e. >1 means the new implementation wins.
    """

    title: str
    metric: str
    baseline: str
    improved: str
    values: Dict[str, Dict[int, float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def factor(self, nprocs: int) -> float:
        """Baseline / improved (the paper's "factor of improvement")."""
        return self.get(self.baseline, nprocs) / self.get(self.improved, nprocs)

    def to_rows(self) -> List[List[str]]:
        header = ["procs", f"{self.baseline} (us)", f"{self.improved} (us)", "factor"]
        rows = [header]
        for n in self.nprocs_list():
            rows.append(
                [
                    str(n),
                    f"{self.get(self.baseline, n):.1f}",
                    f"{self.get(self.improved, n):.1f}",
                    f"{self.factor(n):.2f}",
                ]
            )
        return rows


def format_table(rows: Sequence[Sequence[str]]) -> str:
    """Plain-text table with right-aligned columns."""
    if not rows:
        return ""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    out = []
    for idx, row in enumerate(rows):
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if idx == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def default_params(params: Optional[NetworkParams]) -> NetworkParams:
    return params if params is not None else myrinet2000()
