"""Experiment harness: one module per paper figure, plus ablations."""

from .chaosbench import ChaosBenchConfig, ChaosBenchResult, run_chaosbench
from .common import Comparison, format_table
from .faultbench import FaultBenchConfig, run_faultbench
from .fig7_sync import Fig7Config, run_fig7
from .lockbench import LockBenchConfig, LockPoint, run_lock_point, run_lock_series
from .nicbench import NicBenchConfig, NicBenchResult, run_nicbench
from .parallel import default_jobs, run_cells
from .scalebench import ScaleBenchConfig, ScaleBenchResult, run_scalebench

__all__ = [
    "ChaosBenchConfig",
    "ChaosBenchResult",
    "Comparison",
    "FaultBenchConfig",
    "Fig7Config",
    "LockBenchConfig",
    "LockPoint",
    "NicBenchConfig",
    "NicBenchResult",
    "ScaleBenchConfig",
    "ScaleBenchResult",
    "default_jobs",
    "format_table",
    "run_chaosbench",
    "run_faultbench",
    "run_fig7",
    "run_cells",
    "run_lock_point",
    "run_lock_series",
    "run_nicbench",
    "run_scalebench",
]
