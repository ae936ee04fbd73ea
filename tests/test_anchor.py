"""The host-speed anchor perfbench loads by path, not by import.

``perfbench/run.py::load_measure_anchor`` reads
``benchmarks/perf/bench_simkernel.py`` with ``spec_from_file_location``;
nothing imports it, so only this test notices it moved or changed.
"""

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
ANCHOR = REPO / "benchmarks" / "perf" / "bench_simkernel.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_simkernel", ANCHOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_anchor_loads_by_path_and_measures():
    module = _load()
    # Pinned: every recorded host.events_per_anchor_op assumes it.
    assert module.ANCHOR_OPS == 200_000
    assert module.measure_anchor(1) > 0
