"""Result export: CSV series for plotting the paper's figures.

Each figure's data can be dumped as tidy CSV (one row per
(implementation, nprocs) point) so the curves of Figures 7-10 can be
plotted with any tool.  The CLI exposes this via ``--csv DIR``.
"""

from __future__ import annotations

import csv
import io
import pathlib
from typing import Dict, Optional, Union

from .common import Comparison
from .lockbench import LockPoint
from .nicbench import NicBenchResult
from .scalebench import ScaleBenchResult

__all__ = [
    "comparison_to_csv",
    "lock_series_to_csv",
    "nicbench_to_csv",
    "scalebench_to_csv",
    "to_csv",
    "write_csv",
]


def comparison_to_csv(comparison: Union[Comparison, NicBenchResult]) -> str:
    """Tidy CSV for a per-variant comparison: variant,nprocs,us + factor rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["variant", "nprocs", "microseconds"])
    for variant, series in comparison.values.items():
        for nprocs in sorted(series):
            writer.writerow([variant, nprocs, f"{series[nprocs]:.3f}"])
    for nprocs in comparison.nprocs_list():
        writer.writerow(["factor", nprocs, f"{comparison.factor(nprocs):.4f}"])
    return buffer.getvalue()


def lock_series_to_csv(series: Dict[str, Dict[int, LockPoint]]) -> str:
    """Tidy CSV for a lock benchmark: kind,nprocs,acquire,release,roundtrip."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["kind", "nprocs", "acquire_us", "release_us", "roundtrip_us"]
    )
    for kind, points in series.items():
        for nprocs in sorted(points):
            point = points[nprocs]
            writer.writerow(
                [
                    kind,
                    nprocs,
                    f"{point.acquire_us:.3f}",
                    f"{point.release_us:.3f}",
                    f"{point.roundtrip_us:.3f}",
                ]
            )
    return buffer.getvalue()


#: The NIC ablation has the same shape: per-variant series plus a factor.
nicbench_to_csv = comparison_to_csv


def scalebench_to_csv(result: ScaleBenchResult) -> str:
    """Tidy CSV for the scaling study: one row per (variant, nprocs) cell.

    ``events``/``wall_s`` are machine-dependent; ``sync_us`` is the
    deterministic simulated mean.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["variant", "nprocs", "sync_us", "events", "wall_s"])
    for variant in result.variants:
        for nprocs, cell in sorted(result.cells.get(variant, {}).items()):
            writer.writerow(
                [
                    variant,
                    nprocs,
                    f"{cell.sync_us:.3f}",
                    cell.events,
                    f"{cell.wall_s:.4f}",
                ]
            )
    return buffer.getvalue()


def to_csv(result) -> str:
    """Tidy CSV of any experiment result the CLI's ``--csv`` can export."""
    if isinstance(result, ScaleBenchResult):
        return scalebench_to_csv(result)
    if isinstance(result, dict):
        return lock_series_to_csv(result)
    return comparison_to_csv(result)


def write_csv(
    content: str, directory: Union[str, pathlib.Path], name: str
) -> pathlib.Path:
    """Write CSV ``content`` to ``directory/name.csv``; returns the path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.csv"
    path.write_text(content)
    return path
