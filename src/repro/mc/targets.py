"""First-class model-checking targets: the protocols RMCheck guards.

Each target is a hand-built minimal scenario (N=2..4) exercising one
synchronization protocol end to end, plus the exploration parameters
that make its schedule space both interesting and exhaustible:

* ``nic-barrier`` — the paper's combined fence+barrier offloaded to the
  per-node NIC co-processors (PR 4), crash-free at N=3.  The doorbell,
  inter-NIC exchange, and DMA-completion deliveries all race; the
  commit-or-abort bug the fuzzer found lived exactly here.
* ``nic-barrier-crash`` — the same protocol with one rank crashing
  mid-run: exercises the view-change/commit interaction.  Heartbeat
  traffic makes full exhaustion infeasible; this target is explicitly
  budget-bounded.
* ``ticket-handoff`` — ticket lock grant handoff, single node (the
  algorithm requires it), N=3.  The ticket lock is pure shared memory —
  no fabric deliveries, hence no labeled transitions — so its schedule
  space is the single deterministic run.  Keeping it as a target asserts
  exactly that: the controlled scheduler must not perturb local locks,
  and any future fabric traffic appearing here widens the space visibly.
* ``mcs-handoff`` — MCS queue lock handoff across nodes at N=3 with two
  lock/unlock rounds per rank (one round is contention-free under the
  workload's request stagger), including the ghost-release path hardened
  in the PR 3 review fix.
* ``reliable`` — the ACK/retransmit/resequence layer under a dropping
  link: frame, duplicate, and ACK deliveries interleave.
* ``twolevel-barrier`` — the topology-aware node-leader fence+barrier
  (PR 9) on a two-node SMP hierarchy at N=4: the intra-node gathers,
  leaders' inter-node exchange, scatter, and release signals race with
  the outstanding put's completion across two fabric levels.  The
  four-rank space does not exhaust tractably; budget-bounded.
* ``lock-recovery-remote`` / ``-waiter`` — the hybrid lock's recovery at
  N=3, one rank per node, with the holder crashing in its critical
  section or a queued waiter crashing; recovery runs in every run.
* ``lock-recovery-mcs`` / ``-waiter`` — the same for MCS; its waiter
  crashes after its swap applied at the home and before the reply landed
  (the lagging handle), while the holder's release waits for its link.
* ``partition-heal`` — a two-node cut across a token-lock workload: the
  minority holder is excluded, its lease fenced and the token
  regenerated in the majority, then the cut heals and the rank rejoins
  with a state resync.  The suspension flush, heal executor, rejoin
  view_change, and post-heal lock traffic all race; the stale-token
  release and the resync/local-request FIFO ordering are exactly the
  schedules this target explores.  Detector heartbeats bound the space,
  so like ``nic-barrier-crash`` it is budget-bounded, not exhaustive.

``window`` choices: the fault-free network is deterministic with zero
jitter, so most interesting races are *near*-ties (deliveries a few
microseconds apart, ordered only by serialization); a window of a few
microseconds lets the explorer commute them.  Crash/fault targets keep a
smaller window to contain the schedule tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..fuzz.scenario import Scenario

__all__ = ["MCTarget", "TARGETS", "get_target"]


@dataclass(frozen=True)
class MCTarget:
    name: str
    description: str
    scenario: Scenario
    #: Commutation window (µs) handed to the scheduler strategy.
    window: float
    #: Default run budget; targets marked non-exhaustible keep it low.
    budget: int
    #: Simulated-time cap per run (µs).
    sim_cap_us: float
    #: Whether exhaustion inside the budget is expected (and asserted in
    #: tests / CI).
    expect_exhaustive: bool


def _locks(kind, procs_per_node=1, lock_iters=1, crashes=()):
    """The lock targets' scenario: N=3, one lock phase, then a barrier."""
    return Scenario(
        seed=0,
        nprocs=3,
        procs_per_node=procs_per_node,
        workload="locks",
        barrier_algorithm="exchange",
        lock_kind=kind,
        phases=("lock", "barrier"),
        cells=1,
        lock_iters=lock_iters,
        crashes=crashes,
    )


def _t(name, description, scenario, window, budget, sim_cap_us, exhaustive):
    return MCTarget(
        name=name,
        description=description,
        scenario=scenario,
        window=window,
        budget=budget,
        sim_cap_us=sim_cap_us,
        expect_exhaustive=exhaustive,
    )


TARGETS: Dict[str, MCTarget] = {
    t.name: t
    for t in (
        _t(
            "nic-barrier",
            "NIC-offloaded combined fence+barrier, N=3, crash-free",
            Scenario(
                seed=0,
                nprocs=3,
                procs_per_node=1,
                workload="strips",
                barrier_algorithm="nic",
                nic_algorithm="exchange",
                lock_kind=None,
                phases=("puts", "barrier"),
                cells=1,
            ),
            window=3.0,
            budget=4000,
            sim_cap_us=5_000.0,
            exhaustive=True,
        ),
        _t(
            "nic-barrier-crash",
            "NIC fence+barrier with one rank crashing mid-run, N=3",
            Scenario(
                seed=0,
                nprocs=3,
                procs_per_node=1,
                workload="strips",
                barrier_algorithm="nic",
                nic_algorithm="exchange",
                lock_kind=None,
                phases=("puts", "barrier"),
                cells=1,
                crashes=(("rank", 2, 30.0),),
            ),
            window=1.0,
            budget=400,
            sim_cap_us=8_000.0,
            exhaustive=False,
        ),
        _t(
            "ticket-handoff",
            "ticket lock grant handoff, single node, N=3",
            _locks("ticket", procs_per_node=3),
            window=2.0,
            budget=50,
            sim_cap_us=5_000.0,
            exhaustive=True,
        ),
        _t(
            "mcs-handoff",
            "MCS queue lock handoff across nodes, N=3",
            _locks("mcs", lock_iters=2),
            window=2.0,
            budget=500,
            sim_cap_us=5_000.0,
            exhaustive=True,
        ),
        _t(
            "reliable",
            "ACK/retransmit/resequence layer on a dropping link, N=3",
            Scenario(
                seed=0,
                nprocs=3,
                procs_per_node=1,
                workload="strips",
                barrier_algorithm="exchange",
                lock_kind=None,
                phases=("puts", "barrier"),
                cells=1,
                drop_rate=0.15,
            ),
            window=1.0,
            budget=600,
            sim_cap_us=8_000.0,
            exhaustive=False,
        ),
        _t(
            "twolevel-barrier",
            "two-level node-leader fence+barrier on a 2x2 hierarchy, N=4",
            Scenario(
                seed=0,
                nprocs=4,
                procs_per_node=2,
                workload="strips",
                barrier_algorithm="twolevel",
                lock_kind=None,
                phases=("puts", "barrier"),
                cells=1,
                hier_arity=2,
            ),
            # Four ranks' puts, gathers, the leaders' exchange, and the
            # release fan-out race across two fabric levels — the space
            # does not exhaust at any tractable budget, so this target is
            # budget-bounded like nic-barrier-crash.
            window=3.0,
            budget=400,
            sim_cap_us=5_000.0,
            exhaustive=False,
        ),
        *(
            _t(
                name,
                f"{kind} lock recovery with the {role} crashing, N=3",
                _locks(kind, crashes=(("rank", rank, at_us),)),
                window=window,
                budget=50,
                sim_cap_us=8_000.0,
                exhaustive=True,
            )
            for name, kind, role, rank, at_us, window in (
                # Rank 1 holds from 120.4 to 125.4 us; rank 2 is queued
                # behind it.
                ("lock-recovery-remote", "hybrid", "holder", 1, 122.0, 1.0),
                ("lock-recovery-remote-waiter", "hybrid", "waiter", 2, 130.0, 1.0),
                # Rank 1 holds from 118.6 to 125.1 us; rank 2's swap applies
                # at the home at 150.5 us, its reply lands at 158.6 us, and
                # rank 1's release CAS fails at 153.0 us.  mcs-handoff's
                # window: at 1 us the holder's space is one schedule.
                ("lock-recovery-mcs", "mcs", "holder", 1, 122.0, 2.0),
                ("lock-recovery-mcs-waiter", "mcs", "waiter", 2, 154.0, 2.0),
            )
        ),
        _t(
            "partition-heal",
            "token lock across a healing two-node cut with rejoin resync, N=4",
            Scenario(
                seed=0,
                nprocs=4,
                procs_per_node=1,
                workload="mixed",
                barrier_algorithm="exchange",
                lock_kind="naimi",
                phases=("lock", "barrier"),
                cells=1,
                lock_iters=1,
                partitions=(((3,), 60.0, 600.0),),
            ),
            window=1.0,
            budget=400,
            sim_cap_us=30_000.0,
            exhaustive=False,
        ),
    )
}


def get_target(name: str) -> MCTarget:
    try:
        return TARGETS[name]
    except KeyError:
        known = ", ".join(sorted(TARGETS))
        raise KeyError(f"unknown mc target {name!r} (known: {known})") from None
