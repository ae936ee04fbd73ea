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
:func:`armci_barrier` runs its stage bodies (:data:`SYNCS`, or the
exchange's over the survivor view under a membership service) around the
one stage 2, :func:`_stage2`.

Both counters are *cumulative* over the process lifetime, so repeated
barriers need no reset protocol and the comparison in stage 2 is monotone
(``op_done >= target``).

With ``params.watchdog_timeout_us > 0`` the stage-2 wait is guarded: if the
``op_done`` counter makes no progress for a full window (stalled server,
or a lost operation on an unreliable network), the rank degrades to the
conservative AllFence confirmation path and counts the fallback in
``armci.stats["barrier_fallbacks"]`` — liveness over latency (see
``docs/fault_model.md``).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from ..mp import collectives
from ..mp.vector import CountVector, OpCounts
from ..net.params import SMALL_MSG_BYTES
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


def exchange_sync(comm, counts):
    """The paper's stages: the binary-exchange allreduce of ``op_init``
    (Figure 2), then the binary-exchange barrier.

    Both are whole collectives of :mod:`repro.mp.collectives`, which emit
    their own RMCSan enter/exit pairs and number themselves.
    """
    rank = comm.rank

    def stage1(seq):
        totals = yield from collectives.allreduce_vector(comm, CountVector(counts))
        return totals[rank]

    return stage1, lambda seq: collectives.barrier(comm)


#: Every three-stage algorithm by ``ARMCI_Barrier`` name:
#: ``sync(comm, counts) -> (stage1, stage3)`` for one rank, ``comm`` its
#: Comm or PricePort member and ``counts`` its live ``op_init`` (the
#: topology-aware ones are in :mod:`repro.topo.algorithms`).
SYNCS = {
    "exchange": exchange_sync,
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
    suggestion — price the candidate algorithms' own message patterns
    (see :func:`estimate_us`) and pick the cheapest.  The NIC path joins
    the comparison only when ``params.nic_offload`` is set; it can always
    be requested explicitly.

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
        # The three stages.  Under a membership service every host
        # algorithm (and a NIC barrier that degraded) runs the exchange's
        # patterns over the survivor view: the linear path's MPI barrier
        # and the tree algorithms' fixed roles have no survivor handling.
        seq = armci._barrier_seq
        armci._barrier_seq = seq + 1
        if membership is None:
            stage1, stage3 = SYNCS[algorithm](comm, armci.op_init)
        else:
            survivors = _Survivors(armci)
            stage1, stage3 = survivors.stage1, survivors.stage3
        # A topology-aware algorithm is one collective to the
        # happens-before engine (all-to-all dependence, so joining every
        # enter at each exit is sound); the exchange's stages are two
        # collectives that emit their own pairs.
        coll = monitor is not None and membership is None and algorithm != "exchange"
        if coll:
            monitor.emit("coll_enter", coll=algorithm, epoch=seq)
        target = yield from stage1(seq)
        counted = yield from _stage2(armci, target)
        # A rank whose stage-2 watchdog fell back still joins stage 3, so
        # mixed outcomes cannot deadlock.
        yield from stage3(seq)
        if coll:
            monitor.emit("coll_exit", coll=algorithm, epoch=seq)
        if membership is not None:
            armci._chaos_barrier_info = {
                "view_epoch": membership.epoch,
                "result_epoch": survivors.result_epoch,
                "counted": counted,
                "written_off": target - counted,
            }
    # After stage 3 every operation in the system has completed; all fence
    # state is clean.
    armci.dirty_nodes.clear()
    if monitor is not None:
        extra = armci._chaos_barrier_info or {}
        armci._chaos_barrier_info = None
        monitor.emit("barrier_exit", epoch=epoch, **extra)


def estimate_us(params, topology, algorithm: str, dirty: int = 0) -> float:
    """The price of one barrier ``algorithm`` on ``topology`` (µs).

    Each algorithm runs its own message patterns over a
    :class:`~repro.mp.collectives.PricePort`, for the ranks as ``topology``
    places them: ``exchange``, ``kary``, ``dissemination`` and ``twolevel``
    their stage bodies (:data:`SYNCS`) around the stage-2 poll; ``nic`` the
    doorbell DMA, the engines' folds, their stage-1 and stage-3 patterns
    over nodes, the mirror checks and the release DMA.  ``linear`` is the
    API call, one serial confirmation round trip per ``dirty`` server (the
    server wakes, dispatches and checks the client's fence), then the
    priced barrier.  Only ``linear`` reads ``dirty``; each schedule is run
    once per ``(params, topology)``.
    """
    if algorithm == "auto" or algorithm not in ALGORITHMS:
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
    message-passing barrier alone)."""
    from ..nic.engine import SLOT_BYTES, STAGE_PATTERNS

    n = topology.nprocs
    port = collectives.PricePort(params, topology, nic=algorithm == "nic")
    clock = port.clock
    if algorithm == "nic":
        stage1, stage3 = STAGE_PATTERNS[params.nic_algorithm]
        nodes = range(topology.nnodes)
        dma = SLOT_BYTES * n * params.nic_dma_per_byte_us
        doorbell = params.nic_doorbell_us + params.nic_dma_us + dma

        def engine(node):
            # One NIC step per hosted rank to fold its row, to check its
            # mirror and to release it.
            local = len(topology.ranks_on(node)) * params.nic_proc_us
            clock[node] += doorbell + local
            yield from stage1(node, nodes, *port.port(node, 1), CountVector.zeros(n))
            clock[node] += local
            yield from stage3(node, nodes, *port.port(node, 3), None)
            clock[node] += local + params.nic_dma_us + params.poll_detect_us

        return port.run({node: engine(node) for node in nodes})

    def member(rank):
        comm = port.comm(rank)
        if algorithm == "linear":
            yield from collectives.barrier(comm)
            return
        stage1, stage3 = SYNCS[algorithm](comm, OpCounts(n))
        yield from stage1(0)
        clock[rank] += params.poll_detect_us  # stage 2
        yield from stage3(0)

    return port.run({rank: member(rank) for rank in range(n)})


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
    ``nic`` is a candidate with ``params.nic_offload``, the topology-aware
    algorithms under a hierarchy (twolevel once a node hosts two ranks).
    """
    params = armci.params
    topology = armci.topology
    candidates = ["exchange", "linear"]
    if params.nic_offload:
        candidates.append("nic")
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

        def _on_view(_epoch=None):
            if not view_changed.triggered:
                view_changed.succeed()

        membership.subscribe(_on_view)
        if membership.epoch > 0:  # declared between entry check and here
            _on_view()
        yield released | view_changed
        if not released.triggered:
            released = None
    if released is None:
        armci.stats["nic_degraded"] = armci.stats.get("nic_degraded", 0) + 1
        return False
    armci._chaos_barrier_info = {"nic_epoch": epoch}
    return True


class _Survivors:
    """The exchange's stage 1 and stage 3 over the survivor view: both
    :func:`~repro.mp.collectives.resilient_exchange`, restarted on view
    changes and recorded in the membership ledger.  ``result_epoch`` is
    the view epoch stage 1's totals were computed under."""

    def __init__(self, armci: "Armci"):
        self.armci = armci
        self.result_epoch = None

    def stage1(self, inst: int):
        armci = self.armci
        membership = armci.membership
        # Entered both directly and as the degrade target of the NIC path,
        # so the freeze gate runs here too: an excluded rank must rejoin
        # before it may participate in (or adopt results of) the collective.
        yield from membership.freeze_gate(armci.rank)
        if membership.transient:
            entry = membership.ledger_get(("allreduce", inst))
            if entry is not None and entry[1] < membership.epoch:
                # This instance completed in the majority while we were cut
                # off: we will adopt its recorded result instead of
                # re-running the exchange, so the collective cannot
                # transitively fence *our* outstanding operations (nobody
                # waits on our op_init).  Fence them explicitly to keep the
                # barrier's fence-inclusion guarantee for the rejoined rank.
                yield from allfence_linear(armci)
        totals, self.result_epoch = yield from collectives.resilient_exchange(
            armci.comm, membership, inst, armci.op_init
        )
        return totals[armci.rank]

    def stage3(self, inst: int):
        return collectives.resilient_exchange(self.armci.comm, self.armci.membership, inst)


def _stage2(armci: "Armci", total: int):
    """Stage 2 of every three-stage barrier: poll the local server's
    ``op_done`` counter until it reaches this rank's stage-1 ``total``.

    Returns the target it reached.  Under a membership service the target
    is ``total`` less the dead ranks' never-applied operations
    (``membership.written_off``), re-evaluated at every check since deaths
    may be declared while waiting, and a wait that sees no write for
    ``membership_poll_us`` re-checks.  Otherwise, with
    ``watchdog_timeout_us > 0``, a window with no write and no progress
    means a stalled server or (on an unreliable network without the
    retransmit layer) a lost operation: the rank degrades to the
    conservative AllFence confirmation path, which does not depend on the
    counter, and counts the fallback.  A slow but moving counter keeps
    re-arming the watchdog.  With neither the wait is a plain poll.
    """
    region, addr = armci.server.op_done_cell(armci.rank)
    params = armci.params
    poll_detect_us = params.poll_detect_us
    membership = armci.membership
    window = params.watchdog_timeout_us if membership is None else params.membership_poll_us
    if window <= 0.0:
        yield from region.wait_until(
            addr, lambda v: v >= total, poll_detect_us=poll_detect_us
        )
        return total
    env = armci.env
    value = region.read(addr)  # every check is a monitored read
    stalled = False
    while True:
        target = total if membership is None else total - membership.written_off(armci.rank)
        if value >= target:
            return target
        if stalled:
            armci.stats["barrier_fallbacks"] = armci.stats.get("barrier_fallbacks", 0) + 1
            yield from allfence_linear(armci)
            return target
        wake = region.watcher(addr).wait()
        deadline = env.timeout(window)
        yield wake | deadline
        if wake.triggered and poll_detect_us > 0.0:
            yield poll_detect_us
        last_seen, value = value, region.read(addr)
        stalled = membership is None and not wake.triggered and value <= last_seen
