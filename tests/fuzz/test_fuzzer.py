"""Tier-1 fuzzer tests: determinism, replay, shrinking, oracle, corpus.

The heavyweight guarantees (hundreds of seeds, long mutant budgets) live
in the nightly CI job; here we pin the properties cheaply enough for the
tier-1 suite — small seed windows, the checked-in corpus, and a short
self-test budget that is still known to catch every seeded mutant.
"""

import ast
import dataclasses
import json
import pathlib

import pytest

from repro.fuzz.campaign import (
    CampaignResult,
    load_corpus_entry,
    replay_corpus,
    replay_seed,
    run_campaign,
)
from repro.fuzz.runner import run_scenario
from repro.locks.lh import LHLock
from repro.locks.mcs import MCSLock
from repro.locks.ticket import TicketFamilyLock
from repro.fuzz.scenario import (
    Scenario,
    generate,
    scenario_from_json,
    scenario_to_json,
)
from repro.fuzz.selftest import MUTANTS, run_self_test
from repro.fuzz.shrink import shrink

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
KNOWN_FAILING = pathlib.Path(__file__).parent / "known_failing.json"


class TestScenarioGeneration:
    def test_same_seed_same_scenario(self):
        for seed in range(30):
            assert generate(seed) == generate(seed)

    def test_different_seeds_differ(self):
        scenarios = {generate(seed) for seed in range(30)}
        assert len(scenarios) > 25  # a few collisions are tolerable

    def test_json_round_trip(self):
        for seed in range(20):
            scenario = generate(seed)
            assert scenario_from_json(scenario_to_json(scenario)) == scenario

    def test_generated_scenarios_are_legal(self):
        for seed in range(50):
            s = generate(seed)
            assert s.nprocs >= 3
            assert s.phases[-1] == "barrier", "memory audit needs a final barrier"
            # Rank 0 and node 0 survive (they host recovery services).
            for kind, target, at_us in s.crashes:
                assert at_us > 0.0
                assert (kind, target) not in (("rank", 0), ("node", 0))
            survivors = s.nprocs - len(s.dead_ranks_planned())
            assert survivors >= 2
            if s.lock_kind in ("spin", "mcs-local"):
                assert s.procs_per_node == s.nprocs

    def test_constrain_overrides_and_rederives_phases(self):
        s = generate(3, constrain={"workload": "strips"})
        assert s.workload == "strips"
        assert all(p in ("puts", "barrier") for p in s.phases)

    def test_crash_schedule_sorted_and_deduped(self):
        for seed in range(50):
            s = generate(seed)
            assert list(s.crashes) == sorted(set(s.crashes), key=lambda c: c[2])


class TestTransientGeneration:
    """Legality of the partition/stall fuzz axes (see ``_legalize``)."""

    def test_partitions_always_leave_a_strict_majority(self):
        for seed in range(200):
            s = generate(seed)
            nnodes = s.nprocs // s.procs_per_node
            node_crashes = sum(1 for k, _t, _at in s.crashes if k == "node")
            for nodes, from_us, until_us in s.partitions:
                assert 0.0 <= from_us < until_us
                # Node 0 (lock homes, recovery services) is never cut off,
                # and the remainder out-votes the minority even if every
                # planned node crash lands on the majority side.
                assert nodes and 0 not in nodes
                assert all(0 < n < nnodes for n in nodes)
                assert 2 * len(nodes) < nnodes - node_crashes

    def test_partition_windows_are_pairwise_disjoint(self):
        for seed in range(200):
            s = generate(seed)
            windows = [(f, u) for _nodes, f, u in s.partitions]
            for i, (f1, u1) in enumerate(windows):
                for f2, u2 in windows[i + 1 :]:
                    assert u1 <= f2 or u2 <= f1

    def test_stalls_never_hit_rank0_or_planned_dead(self):
        for seed in range(200):
            s = generate(seed)
            dead = s.dead_ranks_planned()
            ranks = [r for r, _f, _u in s.stalls]
            assert len(set(ranks)) == len(ranks)
            for rank, from_us, until_us in s.stalls:
                assert 0 < rank < s.nprocs
                assert rank not in dead
                assert 0.0 <= from_us < until_us

    def test_both_axes_are_exercised(self):
        scenarios = [generate(seed) for seed in range(200)]
        assert any(s.partitions for s in scenarios)
        assert any(s.stalls for s in scenarios)
        # ...but not always: crash-only scenarios keep their coverage too.
        assert any(not s.has_transients() for s in scenarios)

    def test_json_without_transient_keys_still_parses(self):
        # Backward compatibility: corpus entries written before the
        # partition axes existed carry no partitions/stalls keys.
        s = generate(7)
        data = json.loads(scenario_to_json(s))
        data.pop("partitions")
        data.pop("stalls")
        legacy = scenario_from_json(json.dumps(data))
        assert legacy.partitions == () and legacy.stalls == ()
        assert legacy == dataclasses.replace(s, partitions=(), stalls=())


class TestReplay:
    def test_replay_seed_byte_identical(self):
        first = replay_seed(4)
        second = replay_seed(4)
        assert first.to_json() == second.to_json()
        assert first.render() == second.render()

    def test_small_seed_window_clean(self):
        result = run_campaign(start_seed=0, num_seeds=6, do_shrink=False)
        assert result.ok(), result.render()
        assert result.seeds_run == 6


class TestKnownFailingRatchet:
    """``known_failing.json`` is every red seed in 0-999 with its violation
    kinds (ROADMAP item 1).  CI's ``fuzz-smoke`` sweeps all 1000 against it;
    here the file is checked against the benchmark's exclusion list and a
    sample of it is re-run."""

    @pytest.fixture(scope="class")
    def known(self):
        return {int(s): kinds for s, kinds in json.loads(KNOWN_FAILING.read_text()).items()}

    def test_file_is_well_formed(self, known):
        assert all(0 <= seed < 1000 for seed in known)
        assert all(kinds and kinds == sorted(set(kinds)) for kinds in known.values())

    def test_benchmark_excludes_exactly_the_listed_seeds_of_its_pool(self, known):
        workloads = pathlib.Path(__file__).parents[2] / "perfbench" / "workloads.py"
        constants = {
            node.targets[0].id: ast.literal_eval(node.value)
            for node in ast.parse(workloads.read_text()).body
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", "").startswith("FUZZ_")
        }
        end = constants["FUZZ_POOL_END"]
        listed = {s for s in known if s < end}
        excluded = set(constants["FUZZ_KNOWN_FAILING"])
        # 62, 146 and 249 turned green when lock FIFO came to be judged at
        # the linearisation point.  The benchmark's pool is fixed between
        # benchmark-correcting changes, so it still leaves them out until
        # the next such change returns them; every listed seed stays out.
        assert sorted(excluded - listed) == [62, 146, 249]
        assert listed <= excluded

    @pytest.mark.parametrize("seed", [39, 689, 291, 714, 989])
    def test_listed_seeds_still_fail_with_the_listed_kinds(self, known, seed):
        assert list(replay_seed(seed).kinds()) == known[seed]

    def test_keep_going_collects_every_failing_seed(self, known):
        result = run_campaign(start_seed=30, num_seeds=50, keep_going=True)
        assert result.seeds_run == 50 and not result.ok()
        assert result.failure is None and result.shrunk is None
        expected = {str(s): k for s, k in sorted(known.items()) if 30 <= s < 80}
        assert result.failing() == expected and len(expected) == 3
        data = json.loads(result.to_json())
        assert data["failing"] == expected and data["ok"] is False
        counted = {(kind, lock, barrier): n for kind, lock, barrier, n in data["histogram"]}
        for outcome in result.failures:
            sc = outcome.scenario
            for kind in outcome.kinds():
                assert counted[(kind, sc.lock_kind or "-", outcome.barrier_body)] >= 1
        assert sum(counted.values()) == sum(len(k) for k in expected.values())
        text = result.render()
        assert "3 failing seed(s): 39 72 77" in text
        assert text.splitlines()[2].split() == ["kind", "lock", "barrier", "seeds"]


class TestBarrierBody:
    """The histogram's barrier column names the body that ran, not the one
    the scenario drew."""

    @staticmethod
    def _first(algorithm, membership):
        for seed in range(200):
            scenario = generate(seed)
            planned = bool(scenario.crashes or scenario.partitions or scenario.stalls)
            if scenario.barrier_algorithm == algorithm and planned == membership:
                return scenario
        raise AssertionError(f"no {algorithm} scenario with membership={membership}")

    def test_kary_under_membership_reports_resilient(self):
        outcome = run_scenario(self._first("kary", membership=True))
        assert outcome.barrier_body == "resilient"
        outcome.violations.append({"kind": "deadlock", "message": "planted"})
        result = CampaignResult(start_seed=0, failures=[outcome])
        assert result.histogram() == [
            ("deadlock", outcome.scenario.lock_kind or "-", "resilient", 1)
        ]

    def test_fault_free_kary_reports_kary(self):
        assert run_scenario(self._first("kary", membership=False)).barrier_body == "kary"

    def test_nic_reports_its_degrade(self):
        assert run_scenario(self._first("nic", membership=False)).barrier_body == "nic"
        degraded = run_scenario(self._first("nic", membership=True))
        assert degraded.barrier_body == "nic→resilient"

    def test_body_stays_out_of_the_digested_json(self):
        outcome = run_scenario(self._first("kary", membership=True))
        assert set(json.loads(outcome.to_json())) == {
            "scenario", "violations", "survivors", "dead", "finished_us",
            "events_analyzed",
        }


class TestShrink:
    def test_shrink_reduces_a_failing_scenario(self):
        mutant = MUTANTS[0]  # hasty-nic: cheapest to reproduce
        with mutant.patch():
            scenario = generate(0, constrain=mutant.constrain)
            outcome = run_scenario(scenario)
            assert not outcome.ok()
            result = shrink(scenario, outcome)
        assert result.scenario != result.original
        assert not result.outcome.ok()
        # The shrunken run preserves at least one original violation kind.
        assert set(result.outcome.kinds()) & set(outcome.kinds())

    def test_shrunken_scenario_replays_identically(self):
        mutant = MUTANTS[0]
        with mutant.patch():
            scenario = generate(0, constrain=mutant.constrain)
            result = shrink(scenario, run_scenario(scenario))
            again = run_scenario(result.scenario)
        assert again.to_json() == result.outcome.to_json()


class TestShrinkAxes:
    """The structural reductions: offered where the feature exists, legal,
    absent where they do not apply (ROADMAP 1(a))."""

    #: A legal scenario carrying every structural feature at once.
    RICH = Scenario(
        seed=7, nprocs=8, procs_per_node=2, workload="mixed",
        barrier_algorithm="kary", lock_kind="mcs",
        phases=("puts", "lock", "barrier", "lock", "barrier"),
        crashes=(("rank", 7, 400.0), ("node", 1, 700.0)),
        partitions=(((2,), 100.0, 220.0),),
        stalls=((4, 50.0, 200.0),),
        hier_arity=2,
    )
    #: The same run with every structural feature already at its floor.
    PLAIN = Scenario(
        seed=7, nprocs=3, workload="locks", lock_kind="mcs",
        phases=("lock", "barrier"),
    )

    @staticmethod
    def _offered(scenario):
        from repro.fuzz.shrink import _candidates

        return dict(_candidates(scenario))

    @staticmethod
    def _assert_legal(scenario):
        from repro.fuzz.shrink import _relegalized

        assert _relegalized(scenario) == scenario

    def test_relegalizing_a_legal_scenario_changes_nothing(self):
        self._assert_legal(self.RICH)
        self._assert_legal(self.PLAIN)
        for seed in range(200):
            self._assert_legal(generate(seed))

    @pytest.mark.parametrize(
        "label, changed",
        [
            ("drop partition ((2,), 100.0, 220.0)", {"partitions": ()}),
            ("drop stall (4, 50.0, 200.0)", {"stalls": ()}),
            ("hier_arity 2 -> 0", {"hier_arity": 0}),
            ("barrier kary -> exchange", {"barrier_algorithm": "exchange"}),
            (
                "workload mixed -> locks",
                {"workload": "locks", "phases": ("lock", "barrier", "lock", "barrier")},
            ),
            (
                "workload mixed -> strips",
                {"workload": "strips", "lock_kind": None,
                 "phases": ("puts", "barrier", "barrier")},
            ),
            ("ppn 2 -> 1", {"procs_per_node": 1}),
        ],
    )
    def test_axis_is_a_single_legal_reduction(self, label, changed):
        candidate = self._offered(self.RICH)[label]
        assert candidate == dataclasses.replace(self.RICH, **changed)
        self._assert_legal(candidate)

    def test_dropping_the_highest_rank_relegalizes_what_pointed_at_it(self):
        candidate = self._offered(self.RICH)["drop rank 7"]
        self._assert_legal(candidate)
        assert (candidate.nprocs, candidate.procs_per_node) == (7, 1)  # 7 % 2
        # The crash that named rank 7 is retargeted at a live rank, none is lost.
        assert sorted(c[2] for c in candidate.crashes) == [400.0, 700.0]
        for _kind, target, _at in candidate.crashes:
            assert 1 <= target < 7
        assert candidate.stalls == self.RICH.stalls
        assert candidate.partitions == self.RICH.partitions

    def test_nothing_structural_is_offered_at_the_floor(self):
        labels = set(self._offered(self.PLAIN))
        assert labels == {"drop phase 0 (lock)", "lock_iters 2 -> 1", "cells 4 -> 2"}

    def test_a_void_reduction_is_skipped(self):
        # A ticket lock pins every rank to one node: "ppn -> 1" re-legalizes
        # to the scenario it started from and is not offered.
        pinned = Scenario(
            seed=3, nprocs=4, procs_per_node=4, workload="locks",
            lock_kind="ticket", phases=("lock", "barrier"),
        )
        self._assert_legal(pinned)
        labels = set(self._offered(pinned))
        assert "ppn 4 -> 1" not in labels
        assert "drop rank 3" in labels
        assert self._offered(pinned)["drop rank 3"].procs_per_node == 3

    @pytest.mark.parametrize(
        "seed, parent_minimum",
        [
            # What 120 runs left before the structural axes existed: cluster
            # A's lock-fifo failures with nothing injected.
            (62, {"barrier_algorithm": "linear", "workload": "mixed", "nprocs": 5}),
            (146, {"procs_per_node": 2, "nprocs": 4}),
            (418, {"barrier_algorithm": "kary", "hier_arity": 2, "nprocs": 5}),
        ],
    )
    def test_cluster_a_seeds_shrink_structurally(self, seed, parent_minimum, monkeypatch):
        # Cluster A was an artefact of judging FIFO against send order, and
        # these seeds are green since FIFO is judged where the lock orders
        # requests.  Fed every queue link reversed, the judge sees each
        # handoff inverted, which fails them again with nothing injected.
        for cls in (TicketFamilyLock, MCSLock, LHLock):
            reversed_link = lambda self, link=cls.queue_link: link(self)[::-1]  # noqa: E731
            monkeypatch.setattr(cls, "queue_link", reversed_link)
        scenario = generate(seed)
        result = shrink(scenario, run_scenario(scenario), max_runs=120)
        shrunk = result.scenario
        assert result.outcome.kinds() == ("lock-fifo",)
        assert not (shrunk.crashes or shrunk.partitions or shrunk.stalls)
        assert not shrunk.has_faults()
        smaller = [f for f, before in parent_minimum.items() if getattr(shrunk, f) != before]
        assert len(smaller) >= 2, (smaller, result.steps)
        assert shrunk.nprocs == 3 and shrunk.procs_per_node == 1
        assert shrunk.barrier_algorithm == "exchange" and shrunk.workload == "locks"


class TestSelfTest:
    def test_all_mutants_caught_within_budget(self):
        result = run_self_test(budget=6)
        assert result.all_caught(), result.render()
        for mr in result.results:
            assert mr.violation_kinds, mr.render()

    def test_mutant_catches_are_attributable(self):
        # The scenario that catches each mutant must be clean unpatched —
        # run_self_test enforces this; re-verify the first mutant directly.
        result = run_self_test(budget=6)
        hit = result.results[0]
        scenario = generate(hit.seed, constrain=MUTANTS[0].constrain)
        assert run_scenario(scenario).ok()


class TestCorpus:
    def test_corpus_is_nonempty(self):
        assert len(list(CORPUS_DIR.glob("*.json"))) >= 6

    def test_corpus_entries_parse(self):
        for path in CORPUS_DIR.glob("*.json"):
            note, scenario = load_corpus_entry(path)
            assert note, f"{path.name} missing its note"
            assert isinstance(scenario, Scenario)

    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in CORPUS_DIR.glob("*.json"))
    )
    def test_corpus_entry_replays_clean(self, name):
        _note, scenario = load_corpus_entry(CORPUS_DIR / f"{name}.json")
        outcome = run_scenario(scenario)
        assert outcome.ok(), (
            f"corpus regression {name}: {outcome.violations}"
        )

    def test_replay_corpus_helper_covers_every_entry(self):
        results = replay_corpus(CORPUS_DIR)
        assert len(results) == len(list(CORPUS_DIR.glob("*.json")))
        assert all(outcome.ok() for _name, outcome in results)


class TestCampaignArtifacts:
    def test_failure_json_carries_shrunk_schedule(self):
        # Force a failure deterministically by patching a mutant in, then
        # check the campaign artifact has everything CI uploads.
        mutant = MUTANTS[0]
        with mutant.patch():
            outcome = run_scenario(generate(0, constrain=mutant.constrain))
            assert not outcome.ok()
            shrunk = shrink(outcome.scenario, outcome)
        from repro.fuzz.campaign import CampaignResult

        result = CampaignResult(start_seed=0, seeds_run=1, failure=outcome,
                                shrunk=shrunk)
        data = json.loads(result.to_json())
        assert data["ok"] is False
        assert data["failing_seed"] == 0
        assert data["failure"]["violations"]
        assert data["shrunk"]["scenario"]["nprocs"] >= 3
        assert "replay with: armci-repro fuzz --replay 0" in result.render()

    def test_scenario_equality_is_structural(self):
        s = generate(1)
        assert dataclasses.replace(s) == s
        assert dataclasses.replace(s, cells=s.cells + 1) != s


class TestTopologyAxis:
    def test_hier_arity_defaults_to_flat(self):
        assert generate(0).hier_arity in (0, 2, 4)
        assert Scenario(seed=0, nprocs=4, procs_per_node=2).hier_arity == 0

    def test_legacy_json_without_hier_arity_parses(self):
        s = generate(5)
        data = json.loads(scenario_to_json(s))
        data.pop("hier_arity", None)
        legacy = scenario_from_json(json.dumps(data))
        assert legacy.hier_arity == 0

    def test_hier_arity_round_trips(self):
        for seed in range(40):
            s = generate(seed)
            assert scenario_from_json(scenario_to_json(s)) == s

    def test_both_topology_axes_are_exercised(self):
        scenarios = [generate(seed) for seed in range(60)]
        arities = {s.hier_arity for s in scenarios}
        algs = {s.barrier_algorithm for s in scenarios}
        assert arities - {0}, "no seed ever produced a hierarchy"
        assert 0 in arities, "no seed ever stayed flat"
        assert algs & {"twolevel", "kary", "dissemination"}, (
            "no seed ever picked a topology-aware barrier"
        )

    def test_topo_axis_is_deterministic(self):
        for seed in (0, 7, 23):
            assert generate(seed).hier_arity == generate(seed).hier_arity
            assert generate(seed) == generate(seed)

    def test_hier_scenarios_replay_clean(self):
        ran = 0
        for seed in range(60):
            s = generate(seed)
            if s.hier_arity and ran < 3:
                outcome = run_scenario(s)
                assert outcome.ok(), f"seed {seed}: {outcome.violations}"
                ran += 1
        assert ran == 3


def test_event_stream_digest():
    """sha256 over ``to_json()`` + ``end_state_hash`` of fuzz seeds 0-299.

    Every outcome field is a function of the simulated event stream — which
    message arrived when, in what order — so a refactor that claims "the
    stream is the parent's" is checked here instead of by hand.  **Re-pin
    rule:** a change that is *meant* to move outcomes (a runtime fix, an
    oracle rule, a new scenario axis) re-pins the digest in the same commit
    and says in its message which seeds moved and why; a change that is not
    meant to and trips this test has changed simulated behaviour.
    """
    import hashlib

    digest = hashlib.sha256()
    for seed in range(300):
        outcome = run_scenario(generate(seed))
        digest.update(outcome.to_json().encode())
        digest.update(str(outcome.end_state_hash).encode())
    # Re-pinned when lock FIFO came to be judged against the order the
    # lock linearised the requests instead of the order they were sent:
    # seeds 62, 146 and 249 lose their lock-fifo violation (all three turn
    # green); no other seed moves.
    assert digest.hexdigest() == (
        "97c46f560fe03d21dfc04905ab427ad918f364936ec46798a00af24cefa3e2f0"
    )
