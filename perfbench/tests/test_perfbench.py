"""Tests for the benchmark itself (tiny ``--quick`` sizes throughout).

Run:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import run as bench  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.layers import layer_of  # noqa: E402
from perfbench.workloads import Cell, Workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = bench.load_spec()


@pytest.fixture(scope="module")
def quick_runs():
    """Every workload run quick: untraced once, traced twice."""
    return {
        name: {
            "e2e": bench.run_workload(name, 0, 0.0, False, True),
            "traced": [bench.run_workload(name, 0, 0.0, True, True) for _ in range(2)],
        }
        for name in bench.WORKLOADS
    }


def test_spec_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])  # fmt: skip
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_every_listed_metric_is_emitted_and_nothing_else(quick_runs):
    for kind, listed in (("e2e", SPEC["end_to_end"]), ("traced", SPEC["per_layer"])):
        computed = set()
        for name, runs in quick_runs.items():
            result, own = runs[kind][0] if kind == "traced" else runs[kind]
            assert result["correct"] and result["failed"] == 0, name
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in listed], name
            for metric in listed:
                entry = result["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))
            computed |= set(own)
        # run_workload refuses names BENCHMARK.json does not list; here, the
        # other direction: no listed metric is left without a workload.
        assert computed == {m["name"] for m in listed}


def test_end_to_end_metrics_are_never_zero(quick_runs):
    for name, runs in quick_runs.items():
        for entry in runs["e2e"][0]["metrics"].values():
            assert entry["value"] > 0, name


def test_exact_metrics_and_call_counts_repeat(quick_runs):
    for name, runs in quick_runs.items():
        (first, _), (second, _) = runs["traced"]
        assert (first["attempted"], first["failed"]) == (
            second["attempted"], second["failed"],
        )  # fmt: skip
        for metric, entry in first["metrics"].items():
            if bench.repeats_exactly(metric, entry["unit"]):
                assert second["metrics"][metric]["value"] == entry["value"], (
                    name, metric,
                )  # fmt: skip


def test_workloads_isolate_their_layers(quick_runs):
    """The bypass half of each pairing: layers a workload must not touch."""

    def calls(name, layer):
        return quick_runs[name]["traced"][0][0]["metrics"][f"{layer}.calls"]["value"]

    for name in ("fig7_putsync", "locks_contended"):
        for layer in ("nic.engine", "topo.algorithms", "net.reliable", "analysis"):
            assert calls(name, layer) == 0, (name, layer)
    assert calls("barrier_flat_n1024", "nic.engine") > 0
    assert calls("barrier_hier_n1024", "nic.engine") == 0
    assert calls("barrier_hier_n1024", "topo.algorithms") > 0
    assert calls("faults_reliable", "net.reliable") > 0
    assert calls("fuzz_monitored", "analysis") > 0
    assert calls("mc_nic_barrier", "mc") > 0


def test_a_pass_that_changes_simulated_results_fails_its_cell():
    cell = Cell("c", ops=7, build=lambda: None, run=lambda _s: ({}, None))
    first = {"c": bench.Sample(0.1, {"sim.core.events": 10})}
    tally = bench.Tally(first, {})
    tally.count(cell, first["c"], "first pass")
    again = {"sim.core.events": 10, workloads.HOST_PREFIX + "scenario_s": [0.2]}
    tally.count(cell, bench.Sample(0.1, again), "traced pass")
    assert (tally.attempted, tally.failed) == (14, 0)
    tally.count(cell, bench.Sample(0.1, {"sim.core.events": 11}), "traced pass")
    assert (tally.attempted, tally.failed) == (21, 7)
    assert "differ" in tally.notes[-1]


def test_known_bad_fuzz_seed_is_counted_and_named():
    fuzz = bench.WORKLOADS["fuzz_monitored"]
    assert 39 in workloads.FUZZ_KNOWN_FAILING
    assert 39 not in workloads.fuzz_pool()
    cells = [workloads.fuzz_cell("good", [0, 1]), workloads.fuzz_cell("bad", [2, 39])]
    first = bench.run_pass(cells)
    failures = bench.judge(fuzz, cells, first, quick=True)
    assert set(failures) == {"bad"}
    assert failures["bad"][0] == 1 and "39 [deadlock]" in failures["bad"][1]
    tally = bench.Tally(first, failures)
    for cell in cells:
        tally.count(cell, first[cell.name], "first pass")
    assert (tally.attempted, tally.failed) == (4, 1)  # never dropped from the total


def test_wrong_reference_value_fails_that_cell_only():
    sims = {
        "current.n2": {"sync_us": 54.04320000000005, "samples": 200},
        "new.n2": {"sync_us": 35.61520000000008, "samples": 200},
    }
    ops = {"current.n2": 200, "new.n2": 200}
    reference = {"current.n2": {"sync_us": "54.043"}, "new.n2": {"sync_us": "35.615"}}
    check = bench.WORKLOADS["fig7_putsync"].check
    assert check(sims, ops, False, reference) == {}
    reference["new.n2"] = {"sync_us": "35.616"}
    failures = check(sims, ops, False, reference)
    assert set(failures) == {"new.n2"} and failures["new.n2"][0] == 200
    assert "35.615" in failures["new.n2"][1] and "35.616" in failures["new.n2"][1]


def test_checked_in_references_are_read_at_their_printed_precision():
    assert workloads.fig7_reference()["new.n16"] == {"sync_us": "95.772"}
    assert workloads.locks_reference()["mcs.n8"]["roundtrip_us"] == "258.593"


def _fake_workload(run):
    cells = [
        Cell("good", ops=3, build=lambda: None, run=lambda _s: ({"samples": 3}, None)),
        Cell("bad", ops=5, build=lambda: None, run=run),
    ]
    return Workload("fake", lambda seed, quick: cells, lambda s, o, q: {}, None)


def test_a_raising_cell_fails_every_op_but_not_the_run():
    from repro.runtime.cluster import DeadlockError

    def run(_state):
        raise DeadlockError("programs never finished: p1")

    fake = _fake_workload(run)
    cells = fake.cells(0, True)
    failures = bench.judge(fake, cells, bench.run_pass(cells), quick=True)
    assert failures["bad"] == (5, "DeadlockError: programs never finished: p1")
    assert failures["good"][0] == 3 and "unchecked" in failures["good"][1]


def test_lost_samples_fail_the_cell():
    fake = _fake_workload(lambda _s: ({"samples": 4}, None))
    cells = fake.cells(0, True)
    failures = bench.judge(fake, cells, bench.run_pass(cells), quick=True)
    assert set(failures) == {"bad"} and failures["bad"][0] == 5


def test_watchdog_counts_every_op_as_failed(monkeypatch):
    def hang(_state):
        while True:
            pass

    monkeypatch.setitem(bench.WORKLOADS, "fake", _fake_workload(hang))
    monkeypatch.setattr(bench, "WATCHDOG_S", 1)
    result, _ = bench.run_workload("fake", 0, 0.0, False, True)
    assert result == {"correct": False, "attempted": 8, "failed": 8, "metrics": {}}


def test_layer_of_maps_files_to_this_repos_modules():
    src = "/x/src/repro/"
    assert layer_of(src + "sim/core.py") == "sim.core"
    assert layer_of(src + "net/reliable.py") == "net.reliable"
    assert layer_of(src + "locks/mcs.py") == "locks"
    assert layer_of(src + "analysis/hb.py") == "analysis"
    assert layer_of(src + "runtime/cluster.py") == "other"
    assert layer_of(src + "net/topology.py") == "other"
    assert layer_of("/usr/lib/python3.11/heapq.py") == "other"


def test_modules_do_no_work_at_import():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import perfbench.run, perfbench.workloads, perfbench.layers\n"
        "import perfbench.ladder\n"
        "assert 'repro' not in sys.modules and 'numpy' not in sys.modules\n"
    ) % (str(ROOT), str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )  # fmt: skip
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "fig7_putsync", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_the_command_line_ends_with_one_result_object():
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "mc_nic_barrier", "--seed", "3",
                           "--seconds", "0", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
