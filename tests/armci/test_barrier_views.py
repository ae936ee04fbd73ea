"""A membership service with no fault changes no barrier's outcome.

Under a membership service ``armci_barrier`` runs its stage bodies over the
survivor view and the survivor port.  With a crash planned past the end of
the run the view stays every rank, so each algorithm must leave the memory
and hand every rank the stage-2 target that the plain run does.  Today the
membership side runs the exchange for every host algorithm; the same test
holds once it runs the named one.
"""

import pytest

from repro.armci import barrier as barrier_mod
from repro.net.faults import FaultPlan, ProcessCrash
from repro.net.params import myrinet2000
from repro.runtime.cluster import ClusterRuntime
from repro.runtime.memory import GlobalAddress

ALGORITHMS = ("exchange", "linear", "nic", "kary", "dissemination", "twolevel")

#: A membership service whose one crash lies far beyond the end of the run.
NEVER = FaultPlan(crashes=(ProcessCrash(at_us=1e12, rank=1),), seed=7)


def puts_then_barrier(ctx, algorithm):
    """Rank s puts s + 1 values into its slot of every other rank; each rank
    reads its memory after the barrier."""
    base = ctx.region.alloc(ctx.nprocs, initial=0)
    for peer in range(ctx.nprocs):
        if peer != ctx.rank:
            for k in range(ctx.rank + 1):
                yield from ctx.armci.put(GlobalAddress(peer, base + ctx.rank), [k + 1])
    yield from ctx.armci.barrier(algorithm=algorithm)
    return ctx.region.read_many(base, ctx.nprocs)


@pytest.fixture
def targets(monkeypatch, nic_epoch_states):
    """``run() -> {rank: stage-2 target}`` of the run just made: the
    three-stage bodies' stage-2 argument, or the NIC engines' release."""
    seen = {}
    plain_wait = barrier_mod._stage2

    def recording_wait(armci, target):
        seen[armci.rank] = target
        return plain_wait(armci, target)

    monkeypatch.setattr(barrier_mod, "_stage2", recording_wait)

    def take():
        for state in nic_epoch_states:
            seen.update((rank, ev.value) for rank, ev in state.release.items())
        got = dict(seen)
        seen.clear()
        nic_epoch_states.clear()
        return got

    return take


def run(nprocs, algorithm, faults=None):
    rt = ClusterRuntime(nprocs, procs_per_node=2, params=myrinet2000(faults=faults))
    procs = rt.spawn(puts_then_barrier, algorithm)
    rt.run(until=rt.env.all_of(procs.values()))  # a detector never idles
    return rt, [procs[rank].value for rank in range(nprocs)]


@pytest.mark.parametrize("nprocs", [4, 6, 8])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_membership_without_a_fault_changes_nothing(algorithm, nprocs, targets):
    plain_rt, plain_memory = run(nprocs, algorithm)
    plain_targets = targets()
    members_rt, members_memory = run(nprocs, algorithm, NEVER)
    members_targets = targets()
    assert members_rt.membership is not None and members_rt.membership.epoch == 0

    assert members_memory == plain_memory
    assert plain_memory == [
        [0 if s == r else s + 1 for s in range(nprocs)] for r in range(nprocs)
    ]
    # Every rank's stage-2 target is the count of operations shipped to it
    # (same-node puts are not shipped).
    shipped = [
        sum(plain_rt.armcis[s].op_init[r] for s in range(nprocs)) for r in range(nprocs)
    ]
    assert members_targets == dict(enumerate(shipped))
    # The plain AllFence + barrier has no stage 2.
    assert plain_targets == ({} if algorithm == "linear" else dict(enumerate(shipped)))


def test_nic_barriers_leave_no_view_waiter():
    """A NIC barrier under a membership service waits on its release or the
    next view change, and takes its view-change event back either way: a
    released barrier must not leave it to be fired by a later view change."""
    rt = ClusterRuntime(4, params=myrinet2000(faults=NEVER))

    def barriers(ctx):
        for _ in range(3):
            yield from ctx.armci.barrier(algorithm="nic")

    procs = rt.spawn(barriers)
    rt.run(until=rt.env.all_of(procs.values()))
    assert rt.membership.epoch == 0
    assert all(armci._nic_barrier_seq == 3 for armci in rt.armcis.values())
    assert rt.membership.view_waiters == []
