"""What crosses the boundary of the collective layer in a combined barrier.

Inward, every stage-1 message carries an immutable snapshot of ``op_init``
(never the live list a later put would change under a queued message);
outward, every value the barrier hands on — stage-2 targets, NIC release
values, the monitor's chaos info — is a plain ``int``.
"""

import pytest

from repro.armci import barrier as barrier_mod
from repro.mp.comm import Comm
from repro.mp.vector import CountVector
from repro.net.faults import FaultPlan, ProcessCrash
from repro.net.params import myrinet2000
from repro.nic.engine import NicEngine
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress

HOST_ALGORITHMS = ("exchange", "kary", "dissemination", "twolevel")


def puts_then_barrier(ctx, algorithm):
    base = ctx.region.alloc(ctx.nprocs, initial=0)
    for peer in range(ctx.nprocs):
        if peer != ctx.rank:
            yield from ctx.armci.put(GlobalAddress(peer, base + ctx.rank), [1])
    yield from ctx.armci.barrier(algorithm=algorithm)
    return ctx.armci._chaos_barrier_info


@pytest.fixture
def sent(monkeypatch):
    """Every payload handed to ``Comm.send`` while the test runs."""
    payloads = []
    plain_send = Comm.send

    def recording_send(self, dst, payload, **kwargs):
        payloads.append(payload)
        return plain_send(self, dst, payload, **kwargs)

    monkeypatch.setattr(Comm, "send", recording_send)
    return payloads


@pytest.fixture
def targets(monkeypatch):
    """Every stage-2 target a three-stage barrier waits for."""
    seen = []
    plain_wait = barrier_mod._stage2

    def recording_wait(armci, target):
        seen.append(target)
        return plain_wait(armci, target)

    monkeypatch.setattr(barrier_mod, "_stage2", recording_wait)
    return seen


class TestHostAlgorithms:
    @pytest.mark.parametrize("nprocs", [6, 8])
    @pytest.mark.parametrize("algorithm", HOST_ALGORITHMS)
    def test_vectors_in_plain_ints_out(self, algorithm, nprocs, sent, targets):
        rt = ClusterRuntime(nprocs, procs_per_node=2, params=myrinet2000())
        rt.run_spmd(puts_then_barrier, algorithm)
        vectors = [p for p in sent if isinstance(p, CountVector)]
        assert vectors and all(len(v) == nprocs for v in vectors)
        # All that is not a vector: zero-byte control messages, and the
        # two-level leader's one-slot scatter.
        for payload in sent:
            if not isinstance(payload, CountVector) and payload is not None:
                assert algorithm == "twolevel"
                assert len(payload) == 1 and type(payload[0]) is int
        assert targets == [nprocs - 2] * nprocs  # same-node puts are not shipped
        assert all(type(target) is int for target in targets)


class TestNicAndResilient:
    def test_nic_frames_and_release_values(self, monkeypatch, nic_epoch_states):
        frames = []
        plain_send_frame = NicEngine._send_frame

        def recording_send_frame(self, epoch, phase, dst_node, values=None):
            frames.append(values)
            return plain_send_frame(self, epoch, phase, dst_node, values)

        monkeypatch.setattr(NicEngine, "_send_frame", recording_send_frame)
        rt = ClusterRuntime(8, procs_per_node=2, params=myrinet2000())
        rt.run_spmd(puts_then_barrier, "nic")
        assert any(isinstance(f, CountVector) for f in frames)
        assert all(f is None or isinstance(f, CountVector) for f in frames)
        assert len(nic_epoch_states) == len(rt.fabric._nic_engines)
        for state in nic_epoch_states:
            assert isinstance(state.totals, CountVector)
            for release in state.release.values():
                assert release.value == 6 and type(release.value) is int

    def test_survivor_stages_report_plain_ints(self, sent):
        # A membership service whose one crash lies beyond the end of the run.
        never = FaultPlan(crashes=(ProcessCrash(at_us=1e12, rank=1),), seed=7)
        rt = ClusterRuntime(6, params=myrinet2000(faults=never))
        procs = rt.spawn(puts_then_barrier, "exchange")
        rt.run(until=rt.env.all_of(procs.values()))  # the detector never idles
        infos = [proc.value for proc in procs.values()]
        assert any(isinstance(p, CountVector) for p in sent)
        assert all(p is None or isinstance(p, CountVector) for p in sent)
        for info in infos:
            assert set(info) == {"view_epoch", "result_epoch", "counted", "written_off"}
            assert all(type(value) is int for value in info.values())
        ledger = rt.membership._ledger
        assert isinstance(ledger[("allreduce", 0)][0], CountVector)
        assert ledger[("barrier", 0)][0] is None
