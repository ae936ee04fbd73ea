"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.net.params import myrinet2000
from repro.runtime.cluster import ClusterRuntime
from repro.sim.core import Environment


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def make_cluster():
    """Factory for small cluster runtimes with overridable knobs."""

    def _make(nprocs: int = 4, **kwargs) -> ClusterRuntime:
        kwargs.setdefault("params", myrinet2000())
        return ClusterRuntime(nprocs, **kwargs)

    return _make


@pytest.fixture
def nic_epoch_states(monkeypatch):
    """Every NIC epoch state of the test's runs, in start order: an engine
    drops a state with its last release, so a look after the run needs it
    held from outside."""
    from repro.nic.engine import NicEngine

    states = []
    plain_run_epoch = NicEngine._run_epoch

    def recording_run_epoch(self, epoch, state):
        states.append(state)
        return plain_run_epoch(self, epoch, state)

    monkeypatch.setattr(NicEngine, "_run_epoch", recording_run_epoch)
    return states


def run_spmd(nprocs: int, main, *args, **cluster_kwargs):
    """Convenience: build a cluster and run ``main`` on every rank."""
    cluster_kwargs.setdefault("params", myrinet2000())
    runtime = ClusterRuntime(nprocs, **cluster_kwargs)
    results = runtime.run_spmd(main, *args)
    return runtime, results
