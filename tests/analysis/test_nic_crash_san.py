"""RMCSan coverage of the NIC-offloaded barrier under crashes.

The commit-or-abort protocol must keep a mid-exchange NIC or node death
invisible to the happens-before rules: a committed epoch (every NIC
entered the release stage, so all remote ops drained) is force-released
at the view change, and an uncommitted epoch degrades every surviving
host to the resilient host exchange together.  A clean tree reports
zero violations in both cases; a forged forced release — one with no
preceding ``nic_commit`` — must still be flagged, because the analyzer
only sanctions forced releases it can anchor to a commit snapshot.
"""

from __future__ import annotations

import pytest

from repro.analysis import SyncMonitor
from repro.analysis.sanitize import run_sanitized_target
from repro.fuzz.runner import _fuzz_workload, _make_params
from repro.fuzz.scenario import Scenario
from repro.locks import LockAudit
from repro.nic.engine import NicEngine
from repro.runtime.cluster import ClusterRuntime


def _crash_scenario(kind: str, target: int, at_us: float = 40.0) -> Scenario:
    return Scenario(
        seed=0,
        nprocs=6,
        procs_per_node=2,
        workload="strips",
        barrier_algorithm="nic",
        nic_algorithm="exchange",
        phases=("puts", "barrier", "puts", "barrier"),
        cells=4,
        crashes=((kind, target, at_us),),
    )


def _sanitized_scenario_run(scenario: Scenario):
    monitor = SyncMonitor()
    runtime = ClusterRuntime(
        scenario.nprocs,
        procs_per_node=scenario.procs_per_node,
        params=_make_params(scenario),
        monitor=monitor,
    )
    runtime.run_spmd(_fuzz_workload, scenario, LockAudit())
    return monitor, monitor.analyze()


class TestCrashedNicRuns:
    @pytest.mark.parametrize(
        "kind, target", [("nic", 1), ("node", 2)], ids=["nic-crash", "node-crash"]
    )
    def test_mid_exchange_crash_is_clean(self, kind, target):
        monitor, report = _sanitized_scenario_run(_crash_scenario(kind, target))
        assert report.ok(), report.render()
        kinds = {ev.kind for ev in monitor.events}
        # The crash actually happened and was declared while the NIC
        # barrier vocabulary was in play.
        assert "proc_crashed" in kinds
        assert "view_change" in kinds
        assert "nic_doorbell" in kinds

    @pytest.mark.parametrize("at_us", [25.0, 40.0, 120.0])
    def test_nic_crash_timing_sweep_is_clean(self, at_us):
        _monitor, report = _sanitized_scenario_run(
            _crash_scenario("nic", 1, at_us)
        )
        assert report.ok(), report.render()

    def test_sanitize_target_includes_crash_variants(self):
        results = run_sanitized_target("nic")
        labels = [label for label, _ in results]
        assert "nic[crash=nic]" in labels
        assert "nic[crash=node]" in labels
        for label, report in results:
            assert report.ok(), f"{label}:\n{report.render()}"


class TestForgedForcedRelease:
    def test_forced_release_without_commit_is_flagged(self, monkeypatch):
        """A forced release is only sanctioned by a prior ``nic_commit``.

        The mutated firmware fires ``forced=True`` releases as soon as
        its own doorbells arrive — no commit ever happened, so the
        analyzer has no commit snapshot to join and the release cannot
        dominate the remote doorbells.
        """
        original = NicEngine._run_epoch

        def forged(self, epoch, state):
            if self.node == 0:
                yield state.all_rows
                for rank in self.hosted:
                    self._emit(
                        "nic_release", epoch=epoch, node=self.node,
                        rank=rank, n=self.nprocs, forced=True,
                    )
                    self._schedule_release(
                        state.release[rank], 0,
                        self.params.nic_dma_us + self.params.poll_detect_us,
                    )
            yield from original(self, epoch, state)

        monkeypatch.setattr(NicEngine, "_run_epoch", forged)
        import dataclasses

        scenario = dataclasses.replace(_crash_scenario("nic", 1), crashes=())
        _monitor, report = _sanitized_scenario_run(scenario)
        assert any(
            "nic early release" in v.message
            for v in report.violations
            if v.kind == "barrier"
        ), report.render()
