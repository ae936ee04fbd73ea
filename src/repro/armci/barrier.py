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

import math
from typing import TYPE_CHECKING

from ..mp import collectives
from ..mp.vector import CountVector
from ..net.params import MSG_HEADER_BYTES, SMALL_MSG_BYTES
from ..sim.core import Event

if TYPE_CHECKING:  # pragma: no cover
    from .api import Armci

__all__ = [
    "armci_barrier",
    "ALGORITHMS",
    "estimate_linear_us",
    "estimate_exchange_us",
    "estimate_nic_us",
    "estimate_kary_us",
    "estimate_dissemination_us",
    "estimate_twolevel_us",
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
    suggestion — compare the calibrated cost-model estimates of the
    candidate algorithms (see :func:`estimate_linear_us` and friends) and
    pick the cheapest.  The NIC path joins the comparison only when
    ``params.nic_offload`` is set; it can always be requested explicitly.

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
        from ..topo import algorithms as topo_algorithms

        sync = {
            "kary": topo_algorithms.kary_sync,
            "dissemination": topo_algorithms.dissemination_sync,
            "twolevel": topo_algorithms.twolevel_sync,
        }[algorithm]
        yield from sync(armci)
    else:
        yield from _exchange(armci)
    # After stage 3 every operation in the system has completed; all fence
    # state is clean.
    armci.dirty_nodes.clear()
    if monitor is not None:
        extra = armci._chaos_barrier_info or {}
        armci._chaos_barrier_info = None
        monitor.emit("barrier_exit", epoch=epoch, **extra)


def _mp_barrier_estimate_us(params, nprocs: int) -> float:
    """Handbook cost of the log2(N)-phase message-passing barrier."""
    if nprocs < 2:
        return 0.0
    phases = math.ceil(math.log2(nprocs))
    return phases * (2 * params.mp_call_us + params.one_way(SMALL_MSG_BYTES))


def estimate_linear_us(params, nprocs: int, dirty_count: int) -> float:
    """Analytic estimate of AllFence + MPI_Barrier (µs).

    One serial confirmation round trip per dirty server (the server pays
    wake-up + dispatch + per-client fence verification), then the
    message-passing barrier.  This is the §3.1.2 cost the crossover
    trades against :func:`estimate_exchange_us`.
    """
    fence_rt = (
        2 * params.api_call_us
        + 2 * params.one_way(SMALL_MSG_BYTES)
        + params.server_wake_us
        + params.server_proc_us
        + params.server_fence_check_us
    )
    return (
        params.api_call_us
        + dirty_count * fence_rt
        + _mp_barrier_estimate_us(params, nprocs)
    )


def _level_link(params, node_a: int, node_b: int):
    """Analytic ``(latency_us, per_byte_us)`` for a node pair's link.

    Resolves the pair's crossing level when a hierarchy is configured;
    flat params return the single inter-node figures.  Same-node pairs
    are the caller's responsibility (intra-node costs differ in kind).
    """
    h = params.hierarchy
    if h is None or node_a == node_b:
        return params.inter_latency_us, params.per_byte_us
    return h.link(node_a, node_b, params.inter_latency_us, params.per_byte_us)


def estimate_exchange_us(params, nprocs: int, ppn: int = 1) -> float:
    """Analytic estimate of the host three-stage barrier (µs).

    The default (flat, one rank per node) keeps the exact historical
    closed form, so existing auto-selections are byte-identical.  With
    ``ppn > 1`` or a hierarchy, each phase is priced from the partner
    distance: phases below ``ppn`` stay intra-node; inter-node phases
    charge the crossing level's latency and — the effect that dominates
    at scale — the convoy of ``ppn`` per-rank vectors serializing on
    each node's one NIC.
    """
    vec_bytes = 8 * nprocs
    if ppn <= 1 and params.hierarchy is None:
        allreduce = 0.0
        if nprocs >= 2:
            phases = math.ceil(math.log2(nprocs))
            allreduce = phases * (2 * params.mp_call_us + params.one_way(vec_bytes))
        stage2 = params.poll_detect_us
        return allreduce + stage2 + _mp_barrier_estimate_us(params, nprocs)
    ppn = max(1, ppn)
    total = params.poll_detect_us
    for stage_bytes in (vec_bytes, SMALL_MSG_BYTES):
        distance = 1
        while distance < nprocs:
            if distance < ppn:
                total += (
                    2 * params.mp_call_us
                    + params.shm_access_us
                    + params.intra_latency_us
                )
            else:
                lat, per_byte = _level_link(params, 0, distance // ppn)
                xfer = ppn * (stage_bytes + MSG_HEADER_BYTES) * per_byte
                total += (
                    2 * params.mp_call_us
                    + params.o_send_us
                    + xfer
                    + lat
                    + params.o_recv_us
                )
            distance *= 2
    return total


def estimate_dissemination_us(params, nprocs: int, ppn: int = 1) -> float:
    """Analytic estimate of the dissemination barrier (µs).

    Topology-oblivious: the shifted ``rank + d`` pattern makes some rank
    cross a node boundary in *every* round (the critical path), with up
    to ``min(d, ppn)`` vectors convoying per NIC.
    """
    if nprocs < 2:
        return params.poll_detect_us
    ppn = max(1, ppn)
    vec_bytes = 8 * nprocs
    total = params.poll_detect_us
    for stage_bytes in (vec_bytes, SMALL_MSG_BYTES):
        distance = 1
        while distance < nprocs:
            node_off = max(1, distance // ppn)
            lat, per_byte = _level_link(params, 0, node_off)
            xfer = min(distance, ppn) * (stage_bytes + MSG_HEADER_BYTES) * per_byte
            total += (
                2 * params.mp_call_us
                + params.o_send_us
                + xfer
                + lat
                + params.o_recv_us
            )
            distance *= 2
    return total


def estimate_kary_us(params, nprocs: int, ppn: int = 1) -> float:
    """Analytic estimate of the k-ary combining-tree barrier (µs).

    Per tree tier: the parent serializes ``k`` receives (reduce) and
    ``k`` sends (broadcast) of the totals vector, then the same shape on
    control messages for stage 3.  Tiers whose subtree fits in one SMP
    node ride the intra-node queue.
    """
    if nprocs < 2:
        return params.poll_detect_us
    ppn = max(1, ppn)
    k = params.tree_radix
    vec = 8 * nprocs + MSG_HEADER_BYTES
    ctl = SMALL_MSG_BYTES + MSG_HEADER_BYTES
    total = params.poll_detect_us
    span = 1
    while span < nprocs:
        node_off = span // ppn
        if node_off == 0:
            hop_lat = params.intra_latency_us + params.shm_access_us
            vec_xfer = 0.0
            ctl_xfer = 0.0
        else:
            lat, per_byte = _level_link(params, 0, node_off)
            hop_lat = lat + params.o_send_us + params.o_recv_us
            vec_xfer = vec * per_byte
            ctl_xfer = ctl * per_byte
        total += 2 * (k + 1) * params.mp_call_us + 2 * (k * vec_xfer + hop_lat)
        total += 2 * (k + 1) * params.mp_call_us + 2 * (k * ctl_xfer + hop_lat)
        span *= k
    return total


def estimate_twolevel_us(params, nprocs: int, ppn: int = 1) -> float:
    """Analytic estimate of the two-level leader barrier (µs).

    Intra-node phases are bounded by the leader serializing ``ppn - 1``
    queue operations; the inter-node exchange and stage-3 barrier run
    over one leader per node — a single vector per NIC, no convoy.
    """
    ppn = max(1, ppn)
    nnodes = math.ceil(nprocs / ppn)
    vec = 8 * nprocs + MSG_HEADER_BYTES
    ctl = SMALL_MSG_BYTES + MSG_HEADER_BYTES
    local_hop = params.mp_call_us + params.shm_access_us
    local_round = (ppn - 1) * local_hop + params.intra_latency_us
    # gather + scatter (stage 1) and signal + release (stage 3).
    total = 4 * local_round + params.poll_detect_us
    for stage_bytes in (vec, ctl):
        distance = 1
        while distance < nnodes:
            lat, per_byte = _level_link(params, 0, distance)
            total += (
                2 * params.mp_call_us
                + params.o_send_us
                + stage_bytes * per_byte
                + lat
                + params.o_recv_us
            )
            distance *= 2
    return total


def estimate_nic_us(params, nprocs: int, nnodes: int, ppn: int = 1) -> float:
    """Analytic estimate of the NIC-offloaded barrier (µs).

    Doorbell + DMA down, per-hosted-rank NIC folds, two log2(nnodes)
    frame waves (sum + barrier) at NIC processing cost instead of host
    MPI calls, and the completion DMA back up.
    """
    vec_bytes = 8 * nprocs
    doorbell = (
        params.nic_doorbell_us
        + params.nic_dma_us
        + vec_bytes * params.nic_dma_per_byte_us
    )
    hop_v = (
        2 * params.nic_proc_us
        + params.xfer_time(vec_bytes + MSG_HEADER_BYTES)
        + params.nic_wire_latency_us
    )
    hop_c = (
        2 * params.nic_proc_us
        + params.xfer_time(8 + MSG_HEADER_BYTES)
        + params.nic_wire_latency_us
    )
    phases = math.ceil(math.log2(nnodes)) if nnodes >= 2 else 0
    local = 3 * ppn * params.nic_proc_us  # fold + mirror check + release
    release = params.nic_dma_us + params.poll_detect_us
    return doorbell + local + phases * (hop_v + hop_c) + release


def predicted_crossover_targets(params, nprocs: int) -> int:
    """Smallest dirty-server count where the exchange beats AllFence."""
    exchange = estimate_exchange_us(params, nprocs)
    for targets in range(nprocs + 1):
        if estimate_linear_us(params, nprocs, targets) >= exchange:
            return targets
    return nprocs


def _auto_select(armci: "Armci") -> str:
    """Pick the cheapest algorithm from the calibrated cost model.

    The exchange and NIC estimates depend only on globally-agreed values
    (params, nprocs, node layout), and the linear estimate on the local
    dirty-server count — the same symmetric-pattern contract the previous
    fixed threshold carried (see the warning on :func:`armci_barrier`).
    """
    params = armci.params
    nprocs = armci.nprocs
    estimates = {
        "linear": estimate_linear_us(params, nprocs, len(armci.dirty_nodes)),
        "exchange": estimate_exchange_us(params, nprocs),
    }
    topology = armci.topology
    ppn = topology.procs_per_node
    if params.nic_offload:
        estimates["nic"] = estimate_nic_us(params, nprocs, topology.nnodes, ppn)
    if params.hierarchy is not None:
        # Topology-aware candidates join the comparison only under a
        # hierarchy, so flat auto-selections stay byte-identical.  ppn
        # and the hierarchy are globally agreed, preserving the
        # symmetric-decision contract.
        estimates["exchange"] = estimate_exchange_us(params, nprocs, ppn=ppn)
        estimates["kary"] = estimate_kary_us(params, nprocs, ppn=ppn)
        estimates["dissemination"] = estimate_dissemination_us(
            params, nprocs, ppn=ppn
        )
        if ppn > 1:
            estimates["twolevel"] = estimate_twolevel_us(params, nprocs, ppn=ppn)
    return min(sorted(estimates), key=estimates.get)


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
