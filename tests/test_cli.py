"""CLI smoke tests, and the COMMANDS table as the command line's contract."""

import ast
import pathlib
import re
import shlex

import pytest

from repro import cli
from repro.cli import COMMANDS, FLAGS, main

REPO = pathlib.Path(__file__).resolve().parents[1]


def _one_error_line(err: str) -> bool:
    return (
        err.startswith("armci-repro: error:")
        and err.count("\n") == 1
        and "Traceback" not in err
    )


class TestCli:
    def test_fig7_small(self, capsys):
        assert main(["fig7", "--iterations", "3", "--procs", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "factor" in out

    def test_fig8_small(self, capsys):
        assert main(["fig8", "--iterations", "25", "--procs", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out

    def test_fig9_and_fig10(self, capsys):
        assert main(["fig9", "--iterations", "25", "--procs", "2"]) == 0
        assert "Figure 9" in capsys.readouterr().out
        assert main(["fig10", "--iterations", "25", "--procs", "2"]) == 0
        assert "Figure 10" in capsys.readouterr().out

    def test_locks_bundle(self, capsys):
        assert main(["locks", "--iterations", "25", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "Figure 9" in out and "Figure 10" in out

    def test_network_preset(self, capsys):
        assert main(["fig7", "--iterations", "2", "--procs", "2",
                     "--network", "quadrics"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_bad_network_preset(self, capsys):
        assert main(["fig7", "--iterations", "2", "--procs", "2",
                     "--network", "carrier-pigeon"]) == 2
        err = capsys.readouterr().err
        assert "unknown network preset" in err and _one_error_line(err)

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_ppn_option(self, capsys):
        assert main(["fig8", "--iterations", "20", "--procs", "2",
                     "--ppn", "2"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_csv_export(self, capsys, tmp_path):
        assert main(["fig7", "--iterations", "2", "--procs", "2",
                     "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "csv written" in out
        assert (tmp_path / "fig7_ga_sync.csv").exists()

    def test_locks_csv_export(self, capsys, tmp_path):
        assert main(["locks", "--iterations", "20", "--procs", "2",
                     "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "figs8_9_10_locks.csv").exists()
        capsys.readouterr()

    def test_app_experiment(self, capsys):
        assert main(["app", "--iterations", "2", "--procs", "2"]) == 0
        assert "Application impact" in capsys.readouterr().out

    def test_microbench_experiment(self, capsys):
        from repro.net.params import quadrics_like  # noqa: F401 - preset sanity
        assert main(["microbench", "--network", "quadrics"]) == 0
        out = capsys.readouterr().out
        assert "microbenchmarks" in out and "barrier" in out

    def test_fairness_experiment(self, capsys):
        assert main(["fairness", "--iterations", "30", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fairness" in out and "max/min" in out

    def test_validate_experiment(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out


class TestCheckCommand:
    def test_check_single_target(self, capsys):
        assert main(["check", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "[ok] fig7[current]" in out and "[ok] fig7[new]" in out
        assert "FAIL" not in out

    def test_check_unknown_target(self, capsys):
        assert main(["check", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown check target" in err and _one_error_line(err)

    def test_check_lint_mode(self, capsys):
        assert main(["check", "--lint"]) == 0
        assert "lint: no findings" in capsys.readouterr().out

    def test_trace_out_writes_jsonl(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(["fig7", "--iterations", "2", "--procs", "2",
                     "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace written" in out
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert any("run" in line for line in lines)
        assert any(line.get("kind") == "barrier_enter" for line in lines)


class TestChaosCommand:
    def test_chaos_default_scenario(self, capsys):
        assert main(["chaos"]) == 0
        out = capsys.readouterr().out
        assert "Chaos: crash-stop failures" in out
        assert "ALL CHECKS PASSED" in out

    def test_chaos_custom_kills_and_lock(self, capsys):
        assert main(["chaos", "--procs", "6", "--lock", "mcs",
                     "--kill", "4:60", "--kill", "5:900",
                     "--kill-seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "mcs lock" in out and "kill seed 7" in out
        assert "dead: [4, 5]" in out

    def test_chaos_bad_kill_spec(self, capsys):
        assert main(["chaos", "--kill", "banana"]) == 2
        assert "bad --kill spec" in capsys.readouterr().err

    @pytest.mark.parametrize("nprocs", [4, 5, 6])
    def test_chaos_stock_kills_follow_procs(self, capsys, nprocs):
        # The stock kill script is placed relative to --procs, so a bare
        # `chaos --procs N` never names a rank the user did not type.
        assert main(["chaos", "--procs", str(nprocs)]) == 0
        out = capsys.readouterr().out
        assert f"dead: [{nprocs - 3}, {nprocs - 2}]" in out
        assert "ALL CHECKS PASSED" in out

    def test_chaos_too_few_procs_for_stock_kills(self, capsys):
        assert main(["chaos", "--procs", "3"]) == 2
        err = capsys.readouterr().err
        assert "need at least two survivors" in err and "rank" not in err

    @pytest.mark.parametrize("kind", ["ticket", "lh"])
    def test_chaos_single_node_lock_cannot_be_partitioned(self, capsys, kind):
        assert main(["chaos", "--lock", kind,
                     "--partition", "5:200:1400"]) == 2
        err = capsys.readouterr().err
        assert "single-node lock kinds (ticket, lh)" in err
        assert "out of range" not in err and err.count("\n") == 1

    def test_check_chaos_target(self, capsys):
        assert main(["check", "chaos"]) == 0
        out = capsys.readouterr().out
        assert "[ok] chaos[hybrid]" in out and "[ok] chaos[mcs]" in out
        assert "FAIL" not in out

    def test_chaos_partition_mode(self, capsys):
        assert main(["chaos", "--procs", "6",
                     "--partition", "4,5:200:1400"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "check partition healed: ok" in out
        assert "freeze duration" in out
        assert "heal: cut [4, 5]" in out and "rejoined ranks [4, 5]" in out
        # Transient-only runs drop the stock kill schedule.
        assert "dead: []" in out

    def test_chaos_stall_mode(self, capsys):
        assert main(["chaos", "--procs", "6", "--stall", "3:300:900"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "rejoin: rank 3" in out

    def test_chaos_partition_composes_with_kills(self, capsys):
        assert main(["chaos", "--procs", "6", "--lock", "naimi",
                     "--kill", "3:900", "--partition", "5:200:1400"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "dead: [3]" in out
        assert "check partition healed: ok" in out

    def test_chaos_partition_byte_identical(self, capsys):
        argv = ["chaos", "--procs", "6", "--partition", "4:250:1200",
                "--stall", "2:300:700"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_chaos_same_kill_seed_byte_identical(self, capsys):
        argv = ["chaos", "--kill-seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "ALL CHECKS PASSED" in first


class TestNicCommand:
    def test_nic_small(self, capsys):
        assert main(["nic", "--iterations", "3", "--procs", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "NIC ablation" in out
        for column in ("host-exchange", "nic-exchange", "nic-tree"):
            assert column in out

    def test_check_nic_target(self, capsys):
        assert main(["check", "nic"]) == 0
        out = capsys.readouterr().out
        assert "[ok] nic[exchange]" in out and "[ok] nic[tree]" in out
        assert "FAIL" not in out


class TestCrashPathsConstructFree:
    """Guard: with no crash plan, the crash-stop machinery must not even
    be constructed, and experiment output must be byte-identical run to
    run (the crash subsystem contributes nothing when disabled)."""

    @pytest.fixture
    def membership_forbidden(self, monkeypatch):
        from repro.runtime import membership as m

        def boom(*_a, **_k):  # pragma: no cover - triggers only on a bug
            raise AssertionError(
                "MembershipService constructed without a crash plan"
            )

        monkeypatch.setattr(m.MembershipService, "__init__", boom)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig7", "--iterations", "2", "--procs", "2"],
            ["fig8", "--iterations", "20", "--procs", "2"],
            ["fig9", "--iterations", "20", "--procs", "2"],
            ["fig10", "--iterations", "20", "--procs", "2"],
            ["locks", "--iterations", "20", "--procs", "2"],
            ["faults", "--procs", "4"],
            ["nic", "--iterations", "2", "--procs", "2", "4"],
        ],
        ids=["fig7", "fig8", "fig9", "fig10", "locks", "faults", "nic"],
    )
    def test_output_identical_and_membership_never_built(
        self, capsys, membership_forbidden, argv
    ):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestFaultsExitStatus:
    """``repro faults`` judges its own table: a DIVERGED row exits 1."""

    def test_clean_sweep_exits_zero(self, capsys):
        assert main(["faults", "--procs", "2"]) == 0
        assert "DIVERGED" not in capsys.readouterr().out

    def test_diverged_point_exits_one(self, capsys, monkeypatch):
        from repro.experiments import faultbench

        real = faultbench.run_fault_point

        def diverging(cfg, drop_rate):
            epoch_us, states, runtime = real(cfg, drop_rate)
            return epoch_us, states + (["torn"] if drop_rate else []), runtime

        monkeypatch.setattr(faultbench, "run_fault_point", diverging)
        assert main(["faults", "--procs", "2"]) == 1
        assert "DIVERGED" in capsys.readouterr().out


class TestCliRobustness:
    """Satellite: malformed fault/kill options exit 2 with one stderr line."""

    @pytest.mark.parametrize(
        "spec",
        ["switch:2:nan", "switch:2:inf", "switch:2:1:nan", "switch:2:::inf"],
    )
    def test_non_finite_topo_costs(self, capsys, spec):
        # ``switch:2:nan`` used to print a table of nan microseconds, rc 0.
        argv = ["scalebench", "--procs", "4", "--iterations", "1", "--ppn", "2"]
        assert main(argv + ["--topo", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"armci-repro: error: bad --topo spec {spec!r}")
        assert "finite" in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec, phrase",
        [
            ("banana", "expected RANK:AT_US"),
            ("3", "expected RANK:AT_US"),
            ("3:abc", "expected RANK:AT_US"),
            ("-1:50", "RANK must be >= 0"),
            ("3:0", "AT_US must be > 0"),
            ("3:-5", "AT_US must be > 0"),
        ],
        ids=["word", "no-colon", "bad-time", "neg-rank", "zero-time",
             "neg-time"],
    )
    def test_bad_kill_specs(self, capsys, spec, phrase):
        # --kill=SPEC form so argparse does not mistake "-1:50" for a flag.
        assert main(["chaos", f"--kill={spec}"]) == 2
        captured = capsys.readouterr()
        assert phrase in captured.err
        # One line, no traceback.
        assert captured.err.strip().count("\n") == 0
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "spec, phrase",
        [
            ("banana", "expected NODES:FROM_US:UNTIL_US"),
            ("1:50", "expected NODES:FROM_US:UNTIL_US"),
            ("1:abc:50", "expected NODES:FROM_US:UNTIL_US"),
            ("1:50:50", "need 0 <= FROM_US < UNTIL_US"),
            ("1:-5:50", "need 0 <= FROM_US < UNTIL_US"),
            ("x,y:10:50", "NODES must be comma-separated ints"),
            (",:10:50", "empty node group"),
            ("0:10:50", "node 0"),
            ("1,2,3,4:10:50", "majority"),
        ],
        ids=["word", "two-fields", "bad-time", "empty-window", "neg-start",
             "bad-nodes", "empty-group", "cuts-node0", "no-majority"],
    )
    def test_bad_partition_specs(self, capsys, spec, phrase):
        assert main(["chaos", f"--partition={spec}"]) == 2
        captured = capsys.readouterr()
        assert phrase in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "spec, phrase",
        [
            ("banana", "expected RANK:FROM_US:UNTIL_US"),
            ("1.5:10:50", "RANK must be an int"),
            ("-1:10:50", "RANK must be >= 0"),
            ("0:10:50", "rank 0"),
        ],
        ids=["word", "float-rank", "neg-rank", "stalls-rank0"],
    )
    def test_bad_stall_specs(self, capsys, spec, phrase):
        assert main(["chaos", f"--stall={spec}"]) == 2
        captured = capsys.readouterr()
        assert phrase in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("experiment", ["faults", "fig7"])
    @pytest.mark.parametrize("rate", ["15", "1.0", "-0.1"])
    def test_drop_rate_out_of_range(self, capsys, experiment, rate):
        assert main([experiment, "--drop-rate", rate]) == 2
        captured = capsys.readouterr()
        assert "--drop-rate must be a probability" in captured.err
        assert "Traceback" not in captured.err

    def test_retry_timeout_nonpositive(self, capsys):
        assert main(["faults", "--retry-timeout", "0"]) == 2
        assert "--retry-timeout must be > 0" in capsys.readouterr().err

    def test_fault_seed_non_integer_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "--fault-seed", "seven"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_drop_rate_non_float_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "--drop-rate", "lossy"])
        assert excinfo.value.code == 2
        assert "invalid float value" in capsys.readouterr().err

    # A path the program cannot open or create: refused before any simulation
    # starts.  ``{dir}`` is an empty directory, ``{file}`` a regular file.
    @pytest.mark.parametrize(
        "line, flag",
        [
            ("fig7 --procs 2 --iterations 2 --trace-out {dir}/missing/x.jsonl",
             "--trace-out"),
            ("scalebench --procs 8 --iterations 1 --json-out {dir}/missing/x.json",
             "--json-out"),
            ("fuzz --seeds 1 --json-out {dir}", "--json-out"),
            ("fig7 --procs 2 --iterations 2 --csv {file}/sub", "--csv"),
            ("fig7 --procs 2 --iterations 2 --csv /proc/nope", "--csv"),
            ("nic --procs 2 --iterations 1 --csv {file}", "--csv"),
            ("mc ticket-handoff --ce-out {file}/sub", "--ce-out"),
            ("mc --schedule {dir}/missing.json", "--schedule"),
        ],
        ids=["trace-out", "json-out", "json-out-is-a-dir", "csv-under-a-file",
             "csv-proc", "csv-is-a-file", "ce-out-under-a-file", "schedule"],
    )
    def test_unusable_path_is_one_line_before_any_run(
        self, capsys, monkeypatch, tmp_path, line, flag
    ):
        from repro.sim.core import Environment

        monkeypatch.setattr(
            Environment, "run", lambda *a, **k: pytest.fail("a simulation started")
        )
        empty, regular = tmp_path / "dir", tmp_path / "file"
        empty.mkdir()
        regular.write_text("mine\n")
        argv = line.format(dir=empty, file=regular).split()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert _one_error_line(captured.err)
        path = argv[argv.index(flag) + 1]
        assert f"{flag} {path!r}: " in captured.err
        assert captured.out == ""
        # Nothing was created and nothing of the user's was overwritten.
        assert list(empty.iterdir()) == []
        assert regular.read_text() == "mine\n"
        assert not pathlib.Path("/proc/nope").exists()

    def test_a_refused_trace_path_does_not_leave_capture_enabled(self, tmp_path):
        from repro.analysis import capture

        assert main(["validate", "--trace-out", str(tmp_path / "missing" / "t")]) == 2
        assert capture.flush() is None  # capture is off

    def test_trace_over_the_event_limit_is_one_line_and_no_file(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.analysis import capture
        from repro.sim import trace

        monkeypatch.setattr(trace, "EVENT_LIMIT", 50)
        path = tmp_path / "t.jsonl"
        argv = f"fig7 --procs 2 --iterations 2 --trace-out {path}".split()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert _one_error_line(captured.err)
        assert "more than 50 protocol events" in captured.err
        assert "--iterations" in captured.err and "--procs" in captured.err
        assert "trace written" not in captured.out
        assert not path.exists() and capture.flush() is None

    def test_usable_output_paths_are_claimed_then_written(self, capsys, tmp_path):
        out_dir, json_path = tmp_path / "new" / "csv", tmp_path / "scale.json"
        line = f"scalebench --procs 4 --iterations 1 --csv {out_dir} --json-out {json_path}"
        assert main(line.split()) == 0
        assert (out_dir / "scalebench.csv").read_text().startswith("variant,")
        assert json_path.read_text().startswith("{")

    def test_unknown_mc_target_message_is_not_a_repr(self, capsys):
        assert main(["mc", "nosuchtarget"]) == 2
        captured = capsys.readouterr()
        assert _one_error_line(captured.err)
        assert captured.err.startswith(
            "armci-repro: error: unknown mc target 'nosuchtarget' (known: "
        )
        assert captured.out == ""


class TestFuzzCommand:
    def test_small_campaign_clean(self, capsys):
        assert main(["fuzz", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fuzz campaign: 3 seed(s)" in out
        assert "no invariant violations found" in out

    def test_replay_deterministic(self, capsys):
        assert main(["fuzz", "--replay", "20"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--replay", "20"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_self_test_catches_all_mutants(self, capsys):
        assert main(["fuzz", "--self-test", "--self-test-budget", "6"]) == 0
        out = capsys.readouterr().out
        assert "ORACLE VALIDATED" in out
        assert "MISSED" not in out

    def test_corpus_replay(self, capsys):
        import pathlib

        corpus = pathlib.Path(__file__).parent / "fuzz" / "corpus"
        assert main(["fuzz", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "FAIL" not in out

    def test_corpus_missing_dir(self, capsys):
        assert main(["fuzz", "--corpus", "/does/not/exist"]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_json_out(self, capsys, tmp_path):
        out_path = tmp_path / "campaign.json"
        assert main(["fuzz", "--seeds", "2", "--json-out", str(out_path)]) == 0
        import json

        data = json.loads(out_path.read_text())
        assert data["ok"] is True and data["seeds_run"] == 2

    def test_keep_going_exits_one_iff_a_seed_failed(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "sweep.json"
        argv = ["fuzz", "--keep-going", "--json-out", str(out_path)]
        assert main(argv + ["--start-seed", "36", "--seeds", "6"]) == 1
        out = capsys.readouterr().out
        assert "Fuzz campaign: 6 seed(s) from 36" in out  # ran past seed 39
        assert "1 failing seed(s): 39" in out and "shrunk" not in out
        assert json.loads(out_path.read_text())["failing"] == {"39": ["deadlock"]}
        assert main(argv + ["--seeds", "3"]) == 0
        assert "no invariant violations found" in capsys.readouterr().out

    def test_trace_out_captures_the_replayed_run(self, capsys, tmp_path):
        # The fuzzer installs its own monitor; the trace records that one.
        import json

        path = tmp_path / "t.jsonl"
        assert main(["fuzz", "--replay", "2", "--trace-out", str(path)]) == 0
        assert "(1 run(s), " in capsys.readouterr().out
        kinds = [json.loads(line).get("kind") for line in path.read_text().splitlines()]
        assert "lock_req" in kinds


class TestLintStrict:
    def test_clean_repo_passes_strict(self, capsys):
        assert main(["check", "--lint", "--strict"]) == 0
        assert "lint: no findings" in capsys.readouterr().out

    def test_findings_are_report_only_without_strict(self, capsys, monkeypatch):
        import repro.analysis
        from repro.analysis.lint import LintFinding

        finding = LintFinding("x.py", 1, "op-done-mutation", "planted")
        monkeypatch.setattr(
            repro.analysis, "run_lint", lambda root=None: [finding]
        )
        assert main(["check", "--lint"]) == 0
        assert "planted" in capsys.readouterr().out
        assert main(["check", "--lint", "--strict"]) == 1


class TestMcCommand:
    def test_named_target(self, capsys):
        assert main(["mc", "ticket-handoff"]) == 0
        out = capsys.readouterr().out
        assert "RMCheck ticket-handoff" in out
        assert "OK: every explored schedule satisfies the oracle" in out

    def test_unknown_target_is_cli_error(self, capsys):
        assert main(["mc", "no-such-target"]) == 2
        assert "unknown mc target" in capsys.readouterr().err

    def test_json_out(self, capsys, tmp_path):
        import json

        path = tmp_path / "mc.json"
        assert main(
            ["mc", "ticket-handoff", "--json-out", str(path)]
        ) == 0
        [entry] = json.loads(path.read_text())
        assert entry["target"] == "ticket-handoff"
        assert entry["ok"] is True and entry["exhausted"] is True

    def test_schedule_replay_of_clean_counterexample(self, capsys, tmp_path):
        import json

        from repro.fuzz.scenario import scenario_to_json
        from repro.mc import get_target
        from repro.mc.explore import COUNTEREXAMPLE_FORMAT

        ce = {
            "format": COUNTEREXAMPLE_FORMAT,
            "scenario": json.loads(
                scenario_to_json(get_target("ticket-handoff").scenario)
            ),
            "window": 0.0,
            "sim_cap_us": 20_000.0,
            "schedule": [],
            "violation_kinds": [],
        }
        path = tmp_path / "ce.json"
        path.write_text(json.dumps(ce))
        assert main(["mc", "--schedule", str(path)]) == 0
        assert "[ok]" in capsys.readouterr().out

    def test_schedule_rejects_foreign_json(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError, match="not an RMCheck counterexample"):
            main(["mc", "--schedule", str(path)])

    def test_scenario_seed_exploration(self, capsys):
        assert main(
            ["mc", "--scenario", "0", "--budget", "5", "--cap", "20000"]
        ) == 0
        assert "RMCheck seed 0" in capsys.readouterr().out


class TestScalebenchCommand:
    def test_flat_run(self, capsys):
        assert main(["scalebench", "--procs", "8", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "Barrier scaling" in out and "host-exchange" in out

    def test_topo_run_selects_topology_variants(self, capsys):
        assert main(["scalebench", "--procs", "8", "--iterations", "1",
                     "--ppn", "4", "--topo", "switch:2"]) == 0
        out = capsys.readouterr().out
        assert "hierarchical topology" in out
        assert "twolevel" in out and "dissemination" in out

    def test_csv_and_json_export(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "sb.json"
        assert main(["scalebench", "--procs", "8", "--iterations", "1",
                     "--ppn", "4", "--topo", "switch:2",
                     "--csv", str(tmp_path), "--json-out", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "csv written" in out and "json written" in out
        csv_text = (tmp_path / "scalebench.csv").read_text()
        assert csv_text.startswith("variant,nprocs,sync_us,events,wall_s")
        data = json.loads(json_path.read_text())
        assert data["nprocs"] == [8]
        assert any(c["variant"] == "twolevel" for c in data["cells"])

    def test_coalesced_run(self, capsys):
        assert main(["scalebench", "--procs", "32", "--iterations", "1",
                     "--ppn", "4", "--topo", "switch:4", "--coalesce"]) == 0
        out = capsys.readouterr().out
        assert "coalesced" in out

    def test_bad_topo_spec_is_cli_error(self, capsys):
        assert main(["scalebench", "--topo", "banana"]) == 2
        err = capsys.readouterr().err
        assert "bad --topo spec" in err and err.count("\n") == 1

    def test_bad_topo_arity_is_cli_error(self, capsys):
        assert main(["scalebench", "--topo", "switch:1"]) == 2
        assert "arity must be >= 2" in capsys.readouterr().err

    def test_coalesce_requires_ppn(self, capsys):
        assert main(["scalebench", "--coalesce"]) == 2
        assert "--coalesce requires --ppn > 1" in capsys.readouterr().err

    def test_coalesce_requires_divisible_procs(self, capsys):
        assert main(["scalebench", "--procs", "10", "--ppn", "4",
                     "--topo", "switch:2", "--coalesce"]) == 2
        assert "divisible" in capsys.readouterr().err

    def test_bad_radix_is_cli_error(self, capsys):
        assert main(["scalebench", "--procs", "8", "--radix", "1"]) == 2
        assert "--radix must be >= 2" in capsys.readouterr().err

    def test_topo_applies_to_other_experiments(self, capsys):
        # --topo flows through _network_params, so fig7 accepts it too.
        assert main(["fig7", "--iterations", "2", "--procs", "4",
                     "--topo", "switch:2", "--ppn", "2"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_time_budget_skips_cells(self, capsys):
        assert main(["scalebench", "--procs", "8", "16", "--iterations", "1",
                     "--time-budget", "0"]) == 0
        assert "wall budget" in capsys.readouterr().out


class TestTimeBudget:
    """A spent budget starts nothing, lists what it skipped and exits 0."""

    def test_faults_skips_points(self, capsys):
        assert main(["faults", "--procs", "4", "--time-budget", "0"]) == 0
        out = capsys.readouterr().out
        assert "wall budget 0s exhausted; skipped drop 0.00, drop 0.01" in out
        assert "ok" not in out.split("note:")[0]  # no point ran

    def test_chaos_skips_its_scenario(self, capsys):
        assert main(["chaos", "--time-budget", "0"]) == 0
        out = capsys.readouterr().out
        assert out == "wall budget 0s exhausted; skipped the chaos scenario\n"

    def test_chaos_bad_script_is_still_bad_input(self, capsys):
        assert main(["chaos", "--time-budget", "0", "--kill", "99:10"]) == 2
        assert "victim rank 99 out of range" in capsys.readouterr().err

    def test_nic_skips_cells(self, capsys):
        assert main(["nic", "--procs", "2", "4", "--iterations", "1",
                     "--time-budget", "0"]) == 0
        out = capsys.readouterr().out
        assert "skipped host-exchange@N=2, nic-exchange@N=2, nic-tree@N=2, " in out

    def test_mc_skips_targets(self, capsys, tmp_path):
        import json

        from repro.mc import TARGETS

        out_json = tmp_path / "mc.json"
        assert main(["mc", "--time-budget", "0", "--json-out", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert f"skipped {', '.join(sorted(TARGETS))}\n" in out
        assert json.loads(out_json.read_text()) == []

    def test_nic_row_stopped_part_way_renders_dashes(self):
        from repro.experiments.nicbench import NicBenchResult

        result = NicBenchResult(title="t", metric="m")
        result.record("host-exchange", 2, 35.6)
        assert result.to_rows()[1] == ["2", "35.6", "-", "-", "-", "-"]


def _spelling(key: str) -> str:
    return FLAGS[key][0][0]


def _dest(key: str) -> str:
    return FLAGS[key][1].get("dest") or _spelling(key).lstrip("-").replace("-", "_")


def _declared(name: str, what=_dest) -> set:
    """What command ``name`` declares: dests, or (``what=_spelling``) spellings."""
    return {what(key) for key in COMMANDS[name].flags + ("trace_out",)}


class TestTableIsTheContract:
    """A flag either reaches the command's handler or is rejected."""

    @pytest.fixture(scope="class")
    def parser(self):
        return cli._build_parser()

    @pytest.mark.parametrize("name", COMMANDS)
    def test_help_exits_zero(self, parser, capsys, name):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([name, "--help"])
        assert excinfo.value.code == 0
        assert COMMANDS[name].help in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("name", COMMANDS)
    def test_every_undeclared_flag_is_rejected(self, parser, capsys, name):
        declared = _declared(name, _spelling)
        for key, (names, kwargs) in FLAGS.items():
            if names[0] in declared:
                continue
            # "1" is a legal value of every valued flag, so the only thing
            # wrong with the line is that the command does not take the flag.
            positional = not names[0].startswith("--")
            argv = [name] if positional else [name, names[0]]
            if positional or kwargs.get("action") != "store_true":
                argv.append("1")
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(argv)
            assert excinfo.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err, argv

    def test_parser_holds_exactly_the_declared_flags(self, parser):
        [subparsers] = [
            a for a in parser._actions if isinstance(a.choices, dict)
        ]
        assert list(subparsers.choices) == list(COMMANDS)
        for name, sub in subparsers.choices.items():
            dests = {a.dest for a in sub._actions} - {"help"}
            assert dests == _declared(name), name

    # -- handlers read what they declare, and nothing else -------------------

    @pytest.fixture(scope="class")
    def functions(self):
        tree = ast.parse(pathlib.Path(cli.__file__).read_text())
        return {
            node.name: node
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }

    def _reads(self, functions, name, seen):
        """``args.<dest>`` reads of ``name`` and of every same-module
        function it hands ``args`` to."""
        if name in seen:
            return set()
        seen.add(name)
        reads = set()
        for node in ast.walk(functions[name]):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"
            ):
                reads.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in functions
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
            ):
                reads |= self._reads(functions, node.func.id, seen)
        return reads

    @pytest.mark.parametrize("name", COMMANDS)
    def test_handler_reads_exactly_its_declared_flags(self, functions, name):
        handler = COMMANDS[name].run.__name__
        # ``command`` is the subparser's own dest; ``trace_out`` is main()'s.
        reads = self._reads(functions, handler, set()) - {"command"}
        assert reads == _declared(name) - {"trace_out"}

    def test_main_reads_only_the_universal_dests(self, functions):
        assert self._reads(functions, "main", set()) == {"command", "trace_out"}

    def test_no_dispatch_chain_or_defensive_getattr(self):
        source = pathlib.Path(cli.__file__).read_text()
        for relic in ("_dispatch", "_chaos_defaults", "args.experiment", "getattr(args"):
            assert relic not in source, relic

    # -- modes: a flag of another mode is rejected, not ignored ---------------

    MODED = [name for name, command in COMMANDS.items() if command.modes]

    @staticmethod
    def _argv(key):
        """``key`` on a command line, with "1" (legal for every valued flag)."""
        names, kwargs = FLAGS[key]
        if not names[0].startswith("--"):
            return ["1"]
        return [names[0]] if kwargs.get("action") == "store_true" else [names[0], "1"]

    @pytest.fixture
    def no_simulation(self, monkeypatch, tmp_path):
        """Fails the test if a simulation starts or a file appears."""
        from repro.sim.core import Environment

        def run(*args, **kwargs):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(Environment, "run", run)
        monkeypatch.chdir(tmp_path)
        yield
        assert not list(tmp_path.iterdir())

    def _assert_one_error_line(self, capsys, argv):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        [line] = captured.err.splitlines()
        assert line.startswith(f"armci-repro: error: {argv[0]}: "), line
        return line

    def test_the_commands_that_have_modes(self):
        assert self.MODED == ["fuzz", "mc", "check"]
        assert list(COMMANDS["fuzz"].modes) == ["default", "replay", "corpus", "self_test"]
        assert list(COMMANDS["mc"].modes) == ["default", "scenario", "schedule", "self_test"]
        assert list(COMMANDS["check"].modes) == ["default", "lint"]

    @pytest.mark.parametrize("name", MODED)
    def test_modes_partition_the_declared_flags(self, parser, name):
        command = COMMANDS[name]
        selectors = set(command.modes) - {"default"}
        read = {key for reads in command.modes.values() for key in reads}
        assert selectors | read == set(command.flags)
        assert not selectors & read
        # "Was it given" is "is it not its default": the defaults say nothing.
        for key in command.flags:
            assert FLAGS[key][1].get("default") is None, key

    @pytest.mark.parametrize("name", MODED)
    def test_every_cross_mode_flag_exits_2(self, capsys, no_simulation, name):
        command = COMMANDS[name]
        selectors = [mode for mode in command.modes if mode != "default"]
        for mode, reads in command.modes.items():
            # Without a selector, naming one just selects its mode.
            outside = set(command.flags) - set(reads) - {mode}
            if mode == "default":
                outside -= set(selectors)
            assert outside or mode == "default", mode
            for key in sorted(outside):
                selector = [] if mode == "default" else self._argv(mode)
                line = self._assert_one_error_line(
                    capsys, [name, *selector, *self._argv(key)]
                )
                assert ("different modes" in line) == (key in selectors), line

    @pytest.mark.parametrize(
        "line",
        [
            "fuzz --corpus tests/fuzz/corpus --replay 39",
            "fuzz --replay 5 --seeds 3 --keep-going --time-budget 1",
            "fuzz --self-test --json-out x.json",
            "mc --self-test reliable --budget 3",
            "check --lint fig7",
            "fuzz --replay 5 --start-seed 0",
        ],
    )
    def test_mode_flag_that_silently_won_now_exits_2(self, capsys, no_simulation, line):
        self._assert_one_error_line(capsys, line.split())

    # -- the regressions, by name --------------------------------------------

    @pytest.mark.parametrize(
        "line",
        [
            "chaos --drop-rate 0.5",
            "faults --topo switch:2",
            "locks --jobs 4",
            "fig7 --kill 3:900",
            "ablations --procs 4",
            "validate --network gige",
            "fairness --procs 4 8",
            "faults --procs 4 8",
            "chaos --procs 4 8",
            "locks --lock banana --schedule /nonexistent --kill 3:900",
        ],
    )
    def test_flag_that_did_nothing_now_exits_2(self, capsys, line):
        with pytest.raises(SystemExit) as excinfo:
            main(line.split())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "line, phrase",
        [
            ("fig7 --iterations -1", "must be >= 1"),
            ("fig7 --iterations 0", "must be >= 1"),
            ("fig7 --procs 0", "must be >= 1"),
            ("fig7 --procs 2 -4", "must be >= 1"),
            ("fig7 --ppn 0", "must be >= 1"),
            ("chaos --procs 0", "must be >= 1"),
            ("fuzz --seeds -3", "must be >= 1"),
            ("fuzz --seeds 0", "must be >= 1"),
            ("fuzz --self-test --self-test-budget 0", "must be >= 1"),
            ("mc --budget 0", "must be >= 1"),
            ("fig7 --jobs -1", "must be >= 0"),
            ("fuzz --start-seed -1", "must be >= 0"),
            ("fuzz --replay -1", "must be >= 0"),
            ("scalebench --time-budget -1", "must be >= 0"),
            ("faults --time-budget -1", "must be >= 0"),
            ("chaos --time-budget -0.5", "must be >= 0"),
            ("nic --time-budget -1", "must be >= 0"),
            ("mc --time-budget -1", "must be >= 0"),
            ("fuzz --time-budget nan", "must be >= 0"),
            ("mc --window -0.5", "must be >= 0"),
            ("mc --cap 0", "must be > 0"),
            ("fig7 --iterations many", "invalid int value"),
            ("mc --cap soon", "invalid float value"),
        ],
    )
    def test_numeric_flag_out_of_range_is_argparse_error(self, capsys, line, phrase):
        with pytest.raises(SystemExit) as excinfo:
            main(line.split())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert phrase in err and "Traceback" not in err

    def test_zero_is_in_range_where_it_means_something(self, parser):
        args = parser.parse_args(["scalebench", "--time-budget", "0", "--jobs", "0"])
        assert args.time_budget == 0.0 and args.jobs == 0
        assert parser.parse_args(["mc", "--window", "0"]).window == 0.0
        assert parser.parse_args(["fuzz", "--start-seed", "0"]).start_seed == 0

    def test_ablations_prices_all_six_studies_on_the_requested_network(
        self, capsys, monkeypatch
    ):
        import repro.experiments.ablations as ab
        from repro.net.params import gige

        priced = {}

        class Table:
            def render(self):
                return ""

        def study(name):
            def run(params=None, cfg=None):
                priced[name] = params if cfg is None else cfg.params
                return Table()

            return run

        for name in ("run_crossover", "run_fence_modes", "run_smp_handoff",
                     "run_wake_cost", "run_release_opt", "run_lock_algorithms"):
            monkeypatch.setattr(ab, name, study(name))
        monkeypatch.setattr(ab, "render_release_opt", lambda series: "")
        monkeypatch.setattr(ab, "render_lock_algorithms", lambda series: "")
        assert main(["ablations", "--network", "gige", "--retry-timeout", "40"]) == 0
        assert len(priced) == 6
        assert set(priced.values()) == {gige().with_(retry_timeout_us=40.0)}

    # -- every documented command line still parses --------------------------

    DOCUMENTS = [
        REPO / "README.md",
        REPO / "EXPERIMENTS.md",
        *sorted((REPO / "docs").glob("*.md")),
        *sorted((REPO / ".github" / "workflows").glob("*.yml")),
        REPO / ".claude" / "skills" / "verify" / "SKILL.md",
        pathlib.Path(cli.__file__),
    ]

    @staticmethod
    def _command_lines(text: str):
        """Every ``armci-repro ...`` / ``python -m repro ...`` line of ``text``
        that is a literal command (templates with <>, [], {} or a/b are not)."""
        lines = text.splitlines()
        matrix = re.findall(r'- args: "([^"]+)"', text)
        for i, line in enumerate(lines):
            match = re.search(r"(?:armci-repro|python3? -m repro)[ \t]+(\S.*)", line)
            if match is None:
                continue
            rest = match.group(1)
            nxt = i + 1
            # Continuations: a trailing backslash, a YAML-folded line of
            # flags, or a backticked mention wrapped by the prose.
            while nxt < len(lines) and (
                rest.endswith("\\")
                or re.match(r"--[a-z]", lines[nxt].strip())
                or (line[: match.start()].endswith("`") and "`" not in rest)
            ):
                rest = rest.rstrip("\\") + " " + lines[nxt].strip()
                nxt += 1
            rest = re.split(r"`|\s#|\s—|—", rest)[0].strip()
            # Not a command: "the armci-repro CLI", or a template.
            if not re.match(r"[a-z][a-z0-9]*\b", rest) or re.search(
                r"[<\[{]| / ", rest.replace("${{", "")
            ):
                continue
            expansions = (
                [rest.replace("${{ matrix.args }}", args) for args in matrix]
                if "${{ matrix.args }}" in rest
                else [rest]
            )
            for expanded in expansions:
                yield shlex.split(re.sub(r"\$\{\{.*?\}\}", "1", expanded))

    def test_documented_command_lines_parse(self, parser):
        seen = 0
        for path in self.DOCUMENTS:
            for argv in self._command_lines(path.read_text()):
                try:
                    parser.parse_args(argv)
                except SystemExit as exc:  # --help exits 0
                    where = path.relative_to(REPO)
                    assert exc.code == 0, f"{where}: stale command line {argv}"
                seen += 1
        assert seen >= 50
