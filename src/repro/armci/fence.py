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

On a faulty network the reliable layer (:mod:`repro.net.reliable`)
retransmits a lost confirmation request or reply, and a crashed target
node is written off through the membership service.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net.message import server_endpoint
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
    reply = armci.env.event()
    req = FenceRequest(src_rank=armci.rank, reply=reply)
    # fabric.send, inlined (fences are a per-sync hot path; the target node
    # is remote here, so the sender pays o_send_us).
    p = armci.params
    if p.o_send_us > 0.0:
        yield p.o_send_us
    armci.fabric.post(armci.rank, server_endpoint(node), req, src_node=armci.node)
    yield reply
    armci.dirty_nodes.discard(node)
    if monitor is not None:
        monitor.emit("fence_done", node=node)


def allfence_linear(armci: "Armci"):
    """The original ``ARMCI_AllFence``: serial per-server confirmation.

    Walks nodes in ascending order — as the original implementation's
    ``for (p = 0; p < nproc; p++) ARMCI_Fence(p)`` loop does — which is
    precisely what makes concurrent AllFences convoy at each server in turn
    and scale linearly (the behaviour Figure 7 measures).
    """
    for node in range(armci.topology.nnodes):
        yield from fence_node(armci, node)
