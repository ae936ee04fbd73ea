"""Fence algorithms (paper §3.1.1).

Two subsystem styles:

* **confirm** (GM): put messages are not acknowledged, so a fence must send
  an explicit confirmation request to the target server and wait for the
  reply.  ``ARMCI_AllFence`` then costs up to ``2(N-1)`` one-way latencies —
  and in practice more, because every process walks the servers in the same
  rank order, convoying at each server in turn.

* **ack** (LAPI/VIA): every put generates a flow-control acknowledgement;
  a fence just waits until the outstanding-ack count for the target node
  drains to zero — no extra messages.

Only nodes with unfenced operations are contacted (ARMCI tracks a per-server
fence flag); a fence to a clean node is free.

**Watchdog** (``params.watchdog_timeout_us > 0``): a confirm-mode fence
that waits a full window without hearing back retransmits its confirmation
request with exponential backoff — the request or its reply may have been
lost on a faulty network, or the server may sit in a stall window.  After
``params.max_retries`` unanswered rounds the fence raises instead of
hanging.  Retries are counted in ``armci.stats["fence_retries"]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net.message import server_endpoint
from ..sim.core import Event, SimulationError
from .requests import FenceRequest

if TYPE_CHECKING:  # pragma: no cover
    from .api import Armci

__all__ = ["fence_node", "allfence_linear"]


def fence_node(armci: "Armci", node: int):
    """Wait for completion of all prior shipped ops targeting ``node``."""
    if node == armci.node:
        # Same-node operations are performed directly and complete
        # synchronously; nothing to fence.
        return
    monitor = armci._monitor
    membership = armci.membership  # None unless a crash fault plan is active
    if membership is not None:
        # Partition tolerance: a minority-side rank queues here until it is
        # back in a majority view.  Immediate no-op under crash-only plans.
        yield from membership.freeze_gate(armci.rank)
    if membership is not None and membership.node_dead(node):
        # Degraded fence: the target machine crashed, so its server will
        # never confirm.  The outstanding operations are written off (the
        # barrier's write-off accounting no longer counts them either) and
        # the fence reports clean.
        armci.dirty_nodes.discard(node)
        armci.stats["fence_writeoffs"] = armci.stats.get("fence_writeoffs", 0) + 1
        if monitor is not None:
            monitor.emit("fence_done", node=node, degraded=True)
        return
    if armci.fence_mode == "ack":
        yield from armci.wait_acks_drained(node)
        armci.dirty_nodes.discard(node)
        if monitor is not None:
            monitor.emit("fence_done", node=node)
        return
    if node not in armci.dirty_nodes:
        return
    watchdog_us = armci.params.watchdog_timeout_us
    if watchdog_us > 0.0:
        yield from _confirm_with_watchdog(armci, node, watchdog_us)
    else:
        reply = armci.env.event()
        req = FenceRequest(src_rank=armci.rank, reply=reply)
        # fabric.send, inlined (fences are a per-sync hot path; the target
        # node is remote here, so the sender pays o_send_us).
        p = armci.params
        if p.o_send_us > 0.0:
            yield p.o_send_us
        armci.fabric.post(
            armci.rank, server_endpoint(node), req, src_node=armci.node
        )
        yield reply
    armci.dirty_nodes.discard(node)
    if monitor is not None:
        monitor.emit("fence_done", node=node)


def _confirm_with_watchdog(armci: "Armci", node: int, watchdog_us: float):
    """Confirm-mode fence round trip with timeout-driven retransmission.

    Each attempt is a fresh FenceRequest with its own reply event, so a
    straggling response to an earlier attempt is harmless (its event simply
    triggers with nobody waiting).
    """
    p = armci.params
    membership = armci.membership
    attempts = 0
    while True:
        if membership is not None and membership.node_dead(node):
            # The target machine was declared dead while we were retrying;
            # the caller's degraded path would have caught this up front.
            armci.stats["fence_writeoffs"] = (
                armci.stats.get("fence_writeoffs", 0) + 1
            )
            return
        reply = armci.env.event()
        req = FenceRequest(src_rank=armci.rank, reply=reply)
        yield from armci.fabric.send(armci.rank, server_endpoint(node), req)
        backoff = p.retry_backoff ** min(attempts, p.max_retries)
        deadline = armci.env.timeout(watchdog_us * backoff)
        yield reply | deadline
        if reply.triggered:
            return
        attempts += 1
        armci.stats["fence_retries"] = armci.stats.get("fence_retries", 0) + 1
        if attempts > p.max_retries and membership is None:
            raise SimulationError(
                f"fence to node {node} unanswered after {attempts} attempts "
                f"(watchdog {watchdog_us}us, max_retries={p.max_retries})"
            )


def allfence_linear(armci: "Armci"):
    """The original ``ARMCI_AllFence``: serial per-server confirmation.

    Walks nodes in ascending order — as the original implementation's
    ``for (p = 0; p < nproc; p++) ARMCI_Fence(p)`` loop does — which is
    precisely what makes concurrent AllFences convoy at each server in turn
    and scale linearly (the behaviour Figure 7 measures).
    """
    for node in range(armci.topology.nnodes):
        yield from fence_node(armci, node)
