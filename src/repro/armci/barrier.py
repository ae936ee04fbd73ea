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

if TYPE_CHECKING:  # pragma: no cover
    from .api import Armci

__all__ = [
    "armci_barrier",
    "ALGORITHMS",
    "estimate_us",
    "predicted_crossover_targets",
]

ALGORITHMS = (
    "exchange", "linear", "auto", "nic", "kary", "dissemination", "twolevel"
)


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
    if armci.membership is not None:
        # Partition tolerance: a minority-side rank queues here (it does
        # not fail) until it is back in a majority view and resynced.
        # Immediate no-op under crash-only plans.
        yield from armci.membership.freeze_gate(armci.rank)

    monitor = armci._monitor
    epoch = 0
    if monitor is not None:
        # SPMD programs reach their N-th barrier together, so the per-rank
        # count identifies the epoch across ranks.
        armci._san_barrier_epoch += 1
        epoch = armci._san_barrier_epoch
        monitor.emit("barrier_enter", epoch=epoch)
    if algorithm == "nic":
        # The NIC path owns its crash handling: it degrades to the
        # resilient host exchange when a view change interrupts it.
        yield from _nic(armci)
    elif armci.membership is not None:
        # Crash-stop fault plan active: every host algorithm routes to the
        # resilient exchange (the linear path's MPI barrier has no
        # survivor handling and would wedge on a dead rank).  This covers
        # the topology-aware algorithms too: their fixed tree/leader roles
        # have no survivor compaction story of their own.
        yield from _exchange_resilient(armci)
    elif algorithm == "linear":
        yield from _linear(armci)
    elif algorithm in ("kary", "dissemination", "twolevel"):
        from ..topo.algorithms import topo_sync

        yield from topo_sync(armci, algorithm)
    else:
        yield from _exchange(armci)
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
    places them: ``exchange`` is the allreduce, the stage-2 poll and the
    message-passing barrier; ``kary``, ``dissemination`` and ``twolevel``
    the bodies of :mod:`repro.topo.algorithms` around that poll; ``nic`` the
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
    from ..topo.algorithms import SYNCS

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
        if algorithm in SYNCS:
            stage1, stage3 = SYNCS[algorithm](comm, OpCounts(n))
            yield from stage1(0)
            clock[rank] += params.poll_detect_us  # stage 2
            yield from stage3(0)
            return
        if algorithm == "exchange":
            yield from collectives.allreduce_vector(comm, CountVector.zeros(n))
            clock[rank] += params.poll_detect_us  # stage 2
        yield from collectives.barrier(comm)

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
    three stages among themselves — see :mod:`repro.nic.engine`.  Under a
    crash-stop fault plan the path degrades to the resilient host
    exchange: immediately once any death has been declared, or on the
    view change that interrupts an in-flight NIC barrier (crashed nodes'
    NICs are marked dead by the membership service, so surviving NICs'
    frames to them are refused rather than wedging the fabric).
    """
    from ..nic.engine import ensure_engines

    # The epoch counts this rank's NIC barriers; SPMD programs reach their
    # N-th barrier together, so it identifies the epoch across ranks.
    # Bumped before any degrade branch so ranks that race a view change
    # stay in step for later epochs.
    epoch = armci._nic_barrier_seq
    armci._nic_barrier_seq = epoch + 1
    membership = armci.membership

    def degrade():
        armci.stats["nic_degraded"] = armci.stats.get("nic_degraded", 0) + 1
        return _exchange_resilient(armci)

    if membership is not None and membership.epoch > 0:
        yield from degrade()
        return
    engines = ensure_engines(armci)
    engine = engines[armci.node]
    if engine.dead:
        # NIC-only crash of the local co-processor: the doorbell PIO has
        # nowhere to land, so the host notices immediately and falls back
        # to the resilient host exchange.  Peers with live NICs discover
        # the silence through retry exhaustion (-> view change) instead.
        yield from degrade()
        return
    params = armci.params
    if params.nic_doorbell_us > 0.0:
        yield params.nic_doorbell_us
    release = engine.post_doorbell(epoch, armci.rank, CountVector(armci.op_init))
    if release is None:
        # Fenced at the doorbell: this rank is partition-excluded from the
        # current view.  Degrade to the resilient exchange, whose freeze
        # gate queues the rank until it rejoins.
        yield from degrade()
        return
    if membership is None:
        yield release
    else:
        view_changed = armci.env.event()

        def _on_view(_epoch=None):
            if not view_changed.triggered:
                view_changed.succeed()

        membership.subscribe(_on_view)
        if membership.epoch > 0:  # declared between entry check and here
            _on_view()
        yield release | view_changed
        if not release.triggered:
            yield from degrade()
            return
    armci._chaos_barrier_info = {"nic_epoch": epoch}


def _linear(armci: "Armci"):
    """Original semantics: AllFence, then the message-passing barrier."""
    from . import fence as fence_mod  # local import to avoid cycle at import time

    yield from fence_mod.allfence_linear(armci)
    yield from collectives.barrier(armci.comm)


def _exchange(armci: "Armci"):
    """The new three-stage operation."""
    # Stage 1: binary-exchange sum of op_init[] (Figure 2).
    totals = yield from collectives.allreduce_vector(
        armci.comm, CountVector(armci.op_init)
    )
    # Stage 2: poll the server's op_done counter for our own slot.
    yield from _stage2_wait(armci, totals[armci.rank])
    # Stage 3: binary-exchange barrier synchronization.  Ranks that fell
    # back in stage 2 still join the same collective, so mixed outcomes
    # cannot deadlock.
    yield from collectives.barrier(armci.comm)


def _stage2_wait(armci: "Armci", target: int):
    """Per-rank stage 2 of every fault-free host algorithm: poll the local
    server's ``op_done`` counter until it reaches ``target``."""
    region, addr = armci.server.op_done_cell(armci.rank)
    watchdog_us = armci.params.watchdog_timeout_us
    if watchdog_us > 0.0:
        done = yield from _stage2_wait_with_watchdog(
            armci, region, addr, target, watchdog_us
        )
        if not done:
            # The op_done counter stopped making progress for a full
            # watchdog window: a server is stalled, or (on an unreliable
            # network without the retransmit layer) an operation was lost
            # and the counter will never reach the target.  Degrade to the
            # conservative path — explicit per-server confirmation round
            # trips, which do not depend on the counter — and count it.
            from . import fence as fence_mod

            armci.stats["barrier_fallbacks"] = (
                armci.stats.get("barrier_fallbacks", 0) + 1
            )
            yield from fence_mod.allfence_linear(armci)
    else:
        yield from region.wait_until(
            addr, lambda v: v >= target, poll_detect_us=armci.params.poll_detect_us
        )


def _exchange_resilient(armci: "Armci"):
    """The three-stage barrier under a crash-stop fault plan.

    Stage 1 runs the allreduce compacted over the survivor view (restarting
    on view changes; the lowest survivor folds in dead ranks' kill-time
    ``op_init`` snapshots so totals stay cumulative over the original
    universe).  Stage 2 subtracts dead ranks' issued-but-never-applied
    operations from the target, re-checking every poll because deaths may
    be declared while waiting.  Stage 3 is a survivor-only dissemination
    barrier.  Completed stages are recorded in the membership ledger so a
    rank that finishes before a view change cannot strand restarted peers.
    """
    membership = armci.membership
    # Entered both directly and as the degrade target of the NIC path, so
    # the freeze gate runs here too: an excluded rank must rejoin before
    # it may participate in (or adopt results of) the collective.
    yield from membership.freeze_gate(armci.rank)
    inst = armci._chaos_barrier_seq
    armci._chaos_barrier_seq = inst + 1
    if membership.transient:
        entry = membership.ledger_get(("allreduce", inst))
        if entry is not None and entry[1] < membership.epoch:
            # This instance completed in the majority while we were cut
            # off: we will adopt its recorded result instead of re-running
            # the exchange, so the collective cannot transitively fence
            # *our* outstanding operations (nobody waits on our op_init).
            # Fence them explicitly to keep the barrier's fence-inclusion
            # guarantee for the rejoined rank.
            from .fence import allfence_linear

            yield from allfence_linear(armci)
    totals, result_epoch = yield from collectives.resilient_allreduce_sum(
        armci.comm, membership, armci.op_init, inst
    )
    region, addr = armci.server.op_done_cell(armci.rank)
    counted = yield from _stage2_wait_resilient(armci, region, addr, totals)
    yield from collectives.resilient_barrier(armci.comm, membership, inst)
    armci._chaos_barrier_info = {
        "view_epoch": membership.epoch,
        "result_epoch": result_epoch,
        "counted": counted,
        "written_off": totals[armci.rank] - counted,
    }


def _stage2_wait_resilient(armci: "Armci", region, addr, totals):
    """Stage-2 poll with crash write-offs; returns the final target."""
    env = armci.env
    membership = armci.membership
    me = armci.rank
    poll_detect_us = armci.params.poll_detect_us
    poll_us = membership.params.membership_poll_us
    while True:
        target = totals[me] - membership.written_off(me)
        if region.read(addr) >= target:
            return target
        wake = region.watcher(addr).wait()
        deadline = env.timeout(poll_us)
        yield wake | deadline
        if wake.triggered and poll_detect_us > 0.0:
            yield poll_detect_us


def _stage2_wait_with_watchdog(armci: "Armci", region, addr, target, watchdog_us):
    """Stage-2 poll that gives up when the counter stops progressing.

    Returns True once ``op_done >= target``; returns False if a full
    watchdog window elapses with *no forward progress* (a slow-but-moving
    counter keeps re-arming the watchdog rather than tripping it).
    """
    env = armci.env
    poll_detect_us = armci.params.poll_detect_us
    value = region.read(addr)
    last_seen = value
    while value < target:
        wake = region.watcher(addr).wait()
        deadline = env.timeout(watchdog_us)
        yield wake | deadline
        if wake.triggered and poll_detect_us > 0.0:
            yield poll_detect_us
        value = region.read(addr)
        if value >= target:
            break
        if not wake.triggered and value <= last_seen:
            return False
        last_seen = value
    return True
