"""Experiment harness: one module per paper figure, plus ablations."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".chaosbench": "ChaosBenchConfig, ChaosBenchResult, run_chaosbench",
    ".common": "Comparison, format_table",
    ".faultbench": "FaultBenchConfig, run_faultbench",
    ".fig7_sync": "Fig7Config, run_fig7",
    ".lockbench": "LockBenchConfig, LockPoint, run_lock_point, run_lock_series",
    ".nicbench": "NicBenchConfig, NicBenchResult, run_nicbench",
    ".parallel": "default_jobs, run_cells",
    ".scalebench": "ScaleBenchConfig, ScaleBenchResult, run_scalebench",
})
