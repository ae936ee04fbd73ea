"""The paper's new ``ARMCI_Barrier()`` — combined global fence + barrier.

Semantically equivalent to ``ARMCI_AllFence()`` followed by
``MPI_Barrier()``, but executed in three stages (paper §3.1.2):

1. **Distribute the issue counts.**  Every process keeps ``op_init[i]`` =
   number of memory operations it shipped to process *i*'s server.  A
   binary-exchange elementwise-sum (Figure 2; recursive-doubling allreduce)
   leaves each process *i* holding the system-wide total of operations
   destined for it — ``log2(N)`` overlapped exchange phases.

2. **Wait for local completion.**  Each process polls its server thread's
   shared-memory ``op_done`` counter until it reaches the stage-1 total for
   its own slot.  The server increments the counter as it completes
   incoming requests; no messages are exchanged.

3. **Barrier synchronization.**  A binary-exchange barrier (another
   ``log2(N)`` phases) ensures no process continues until every process
   passed stage 2 — i.e. until *all* puts completed at *all* servers.

Total communication: ``2 * log2(N)`` one-way latencies, versus the original
``2(N-1) + log2(N)``.

Every host algorithm but ``linear`` is these three stages:
:func:`armci_barrier` runs its stage bodies (:data:`SYNCS`) around the one
stage 2, :func:`_stage2` — over every rank and the host port, or under a
membership service over the survivor view and the survivor port (see
:func:`~repro.mp.collectives.barrier_stages`).

Both counters are *cumulative* over the process lifetime, so repeated
barriers need no reset protocol and the comparison in stage 2 is monotone
(``op_done >= target``).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from ..mp import collectives
from ..mp.vector import CountVector
from ..net.params import MEMBERSHIP_POLL_US, SMALL_MSG_BYTES
from ..net.topology import Topology
from ..topo.algorithms import dissemination_sync, kary_sync, twolevel_sync
from .fence import allfence_linear

if TYPE_CHECKING:  # pragma: no cover
    from .api import Armci

__all__ = [
    "armci_barrier",
    "ALGORITHMS",
    "SYNCS",
    "estimate_us",
    "predicted_crossover_targets",
]

ALGORITHMS = (
    "exchange", "linear", "auto", "nic", "kary", "dissemination", "twolevel"
)


#: Every three-stage algorithm by ``ARMCI_Barrier`` name:
#: ``sync(me, view, port, counts) -> (stage1, stage3)`` for one rank (the
#: paper's exchange is the message-passing layer's, the others are in
#: :mod:`repro.topo.algorithms`), run fault-free, over the survivor view and
#: by the pricing port alike.
SYNCS = {
    "exchange": collectives.exchange_sync,
    "kary": kary_sync,
    "dissemination": dissemination_sync,
    "twolevel": twolevel_sync,
}


def armci_barrier(armci: "Armci", algorithm: str = "exchange"):
    """Run the combined fence+barrier using the selected algorithm.

    ``"exchange"`` is the paper's new operation; ``"linear"`` is the
    original AllFence + message-passing barrier; ``"nic"`` offloads all
    three stages to the programmable NIC co-processors (see
    :mod:`repro.nic.engine`); ``"kary"``, ``"dissemination"``, and
    ``"twolevel"`` are the topology-aware host algorithms of
    :mod:`repro.topo.algorithms`; ``"auto"`` implements the paper's closing
    suggestion — price the candidate host algorithms' own message patterns
    (see :func:`estimate_us`) and pick the cheapest.  The NIC path is never
    a candidate; it is requested explicitly.

    .. warning::
       ``"auto"`` decides from the *local* count of servers touched since
       the last fence, with no extra communication (any agreement round
       would cost the log2(N) latencies the linear path is trying to
       save).  It therefore carries the same contract as the paper's
       "allow the programmer to choose": the communication pattern must be
       symmetric enough that every rank reaches the same decision.  With
       asymmetric patterns — including hidden asymmetry from MCS-lock
       protocol traffic — ranks may pick different algorithms and deadlock
       in the collective; pick ``"exchange"`` or ``"linear"`` explicitly
       there.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    comm = armci.comm
    if comm is None:
        raise RuntimeError(
            "ARMCI_Barrier requires a message-passing communicator "
            "(construct Armci with comm=...)"
        )
    if algorithm == "auto":
        algorithm = _auto_select(armci)
    membership = armci.membership
    if membership is not None:
        # Partition tolerance: a minority-side rank queues here (it does
        # not fail) until it is back in a majority view and resynced.
        # Immediate no-op under crash-only plans.
        yield from membership.freeze_gate(armci.rank)

    monitor = armci._monitor
    epoch = 0
    if monitor is not None:
        # SPMD programs reach their N-th barrier together, so the per-rank
        # count identifies the epoch across ranks.
        armci._san_barrier_epoch += 1
        epoch = armci._san_barrier_epoch
        monitor.emit("barrier_enter", epoch=epoch)
    if algorithm == "linear" and membership is None:
        # The original semantics: AllFence, then the message-passing barrier.
        yield from allfence_linear(armci)
        yield from collectives.barrier(comm)
    elif algorithm == "nic" and (yield from _nic(armci)):
        pass  # the NIC engines ran all three stages
    else:
        seq = armci._barrier_seq
        armci._barrier_seq = seq + 1
        # The degrade: under a membership service every host algorithm (and
        # a NIC barrier that degraded) runs the exchange.  ROADMAP item 4's
        # follow-up runs ``algorithm if algorithm in SYNCS else "exchange"``.
        sync = SYNCS[algorithm if membership is None else "exchange"]
        stage1, stage3 = collectives.barrier_stages(
            sync, comm, membership, seq, armci.op_init,
            functools.partial(allfence_linear, armci),
        )
        # A topology-aware algorithm is one collective to the
        # happens-before engine (all-to-all dependence, so joining every
        # enter at each exit is sound); the exchange's stages are two
        # collectives that emit their own pairs.
        coll = monitor is not None and membership is None and algorithm != "exchange"
        if coll:
            monitor.emit("coll_enter", coll=algorithm, epoch=seq)
        target, _totals = yield from stage1()
        counted = yield from _stage2(armci, target)
        epochs = yield from stage3()
        if coll:
            monitor.emit("coll_exit", coll=algorithm, epoch=seq)
        if epochs is not None:
            armci._chaos_barrier_info = {
                **epochs, "counted": counted, "written_off": target - counted
            }
    # After stage 3 every operation in the system has completed; all fence
    # state is clean.
    armci.dirty_nodes.clear()
    if monitor is not None:
        extra = armci._chaos_barrier_info or {}
        armci._chaos_barrier_info = None
        monitor.emit("barrier_exit", epoch=epoch, **extra)


def estimate_us(params, topology, algorithm: str, dirty: int = 0) -> float:
    """The price of one host barrier ``algorithm`` on ``topology`` (µs).

    Each algorithm runs its own message patterns over a
    :class:`~repro.mp.collectives.PricePort`, for the ranks as ``topology``
    places them: ``exchange``, ``kary``, ``dissemination`` and ``twolevel``
    their stage bodies (:data:`SYNCS`) around the stage-2 poll.
    ``linear`` is the API call, one serial confirmation round trip per
    ``dirty`` server (the server wakes, dispatches and checks the client's
    fence), then the priced barrier.  Only ``linear`` reads ``dirty``;
    each schedule is run once per ``(params, topology)``.  ``nic`` and
    ``auto`` are not priced: ``auto`` never weighs the NIC path.
    """
    if algorithm in ("auto", "nic") or algorithm not in ALGORITHMS:
        raise ValueError(f"cannot price algorithm {algorithm!r}")
    price = _price(params, topology, algorithm)
    if algorithm != "linear":
        return price
    fence_rt = (
        2 * params.one_way(SMALL_MSG_BYTES)
        + params.server_wake_us
        + params.server_proc_us
        + params.server_fence_check_us
    )
    return params.api_call_us + dirty * fence_rt + price


@functools.lru_cache(maxsize=64)
def _price(params, topology, algorithm: str) -> float:
    """``algorithm``'s schedule run over a pricing port (``linear``: its
    message-passing barrier alone, the exchange's stage 3)."""
    n = topology.nprocs
    sync = "exchange" if algorithm == "linear" else algorithm
    price = collectives.PricePort(params, topology)
    clock = price.clock

    def member(rank):
        port = price.port(rank)
        stage1, stage3 = SYNCS[sync](rank, range(n), port, CountVector.zeros(n))
        if algorithm != "linear":
            yield from stage1()
            clock[rank] += params.poll_detect_us  # stage 2
        yield from stage3()

    return price.run({rank: member(rank) for rank in range(n)})


def predicted_crossover_targets(params, nprocs: int) -> int:
    """Smallest dirty-server count where the exchange beats AllFence."""
    topology = Topology(nprocs)
    exchange = estimate_us(params, topology, "exchange")
    for targets in range(nprocs + 1):
        if estimate_us(params, topology, "linear", targets) >= exchange:
            return targets
    return nprocs


def _auto_select(armci: "Armci") -> str:
    """The argmin of :func:`estimate_us`, ties broken alphabetically.

    Only linear's price reads a local value (the dirty-server count): the
    symmetric-pattern contract of the warning on :func:`armci_barrier`.
    The topology-aware algorithms are candidates under a hierarchy
    (twolevel once a node hosts two ranks).
    """
    params = armci.params
    topology = armci.topology
    candidates = ["exchange", "linear"]
    if params.hierarchy is not None:
        candidates += ["dissemination", "kary"]
        if topology.procs_per_node > 1:
            candidates.append("twolevel")
    dirty = len(armci.dirty_nodes)
    return min(
        sorted(candidates),
        key=lambda algorithm: estimate_us(params, topology, algorithm, dirty),
    )


def _nic(armci: "Armci"):
    """The NIC-offloaded barrier: doorbell down, completion DMA back up.

    The host posts its ``op_init`` row in a single doorbell and blocks;
    the per-node NIC engines (built lazily on first use) execute all
    three stages among themselves — see :mod:`repro.nic.engine`.  Returns
    True once they released this rank.  Under a crash-stop fault plan the
    path degrades instead — counted in ``armci.stats["nic_degraded"]``,
    returning False so the caller runs the three stages over the survivor
    view: immediately once any death has been declared, or on the view
    change that interrupts an in-flight NIC barrier (crashed nodes' NICs
    are marked dead by the membership service, so surviving NICs' frames
    to them are refused rather than wedging the fabric).
    """
    from ..nic.engine import ensure_engines

    # The epoch counts this rank's NIC barriers; SPMD programs reach their
    # N-th barrier together, so it identifies the epoch across ranks.
    # Bumped before any degrade branch so ranks that race a view change
    # stay in step for later epochs.
    epoch = armci._nic_barrier_seq
    armci._nic_barrier_seq = epoch + 1
    membership = armci.membership
    released = None
    if membership is None or membership.epoch == 0:
        engine = ensure_engines(armci)[armci.node]
        # A dead engine is a NIC-only crash of the local co-processor: the
        # doorbell PIO has nowhere to land, so the host notices
        # immediately.  Peers with live NICs discover the silence through
        # retry exhaustion (-> view change) instead.
        if not engine.dead:
            params = armci.params
            if params.nic_doorbell_us > 0.0:
                yield params.nic_doorbell_us
            # None: fenced at the doorbell, this rank is partition-excluded
            # from the current view; the survivor stages' freeze gate
            # queues it until it rejoins.
            released = engine.post_doorbell(epoch, armci.rank, CountVector(armci.op_init))
    if released is not None and membership is None:
        yield released
    elif released is not None:
        view_changed = armci.env.event()
        if membership.epoch > 0:  # declared between entry check and here
            view_changed.succeed()
        waiters = membership.view_waiters
        waiters.append(view_changed)
        yield released | view_changed
        waiters.remove(view_changed)
        if not released.triggered:
            released = None
    if released is None:
        armci.stats["nic_degraded"] = armci.stats.get("nic_degraded", 0) + 1
        return False
    armci._chaos_barrier_info = {"nic_epoch": epoch}
    return True


def _stage2(armci: "Armci", total: int):
    """Stage 2 of every three-stage barrier: poll the local server's
    ``op_done`` counter until it reaches this rank's stage-1 ``total``.

    Returns the target it reached.  Without a membership service the wait
    is a plain :meth:`~repro.runtime.memory.Region.wait_until`.  Under one
    the target is ``total`` less the dead ranks' never-applied operations
    (``membership.written_off``), re-evaluated at every check since deaths
    may be declared while waiting, and a wait that sees no write for
    :data:`~repro.net.params.MEMBERSHIP_POLL_US` re-checks.
    """
    region, addr = armci.server.op_done_cell(armci.rank)
    poll_detect_us = armci.params.poll_detect_us
    membership = armci.membership
    if membership is None:
        yield from region.wait_until(
            addr, lambda v: v >= total, poll_detect_us=poll_detect_us
        )
        return total
    env = armci.env
    value = region.read(addr)  # every check is a monitored read
    while True:
        target = total - membership.written_off(armci.rank)
        if value >= target:
            return target
        wake = region.watcher(addr).wait()
        deadline = env.timeout(MEMBERSHIP_POLL_US)
        yield wake | deadline
        if wake.triggered and poll_detect_us > 0.0:
            yield poll_detect_us
        value = region.read(addr)
