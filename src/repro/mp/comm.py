"""MPI-like point-to-point messaging over the simulated fabric.

ARMCI is designed to coexist with a message-passing library (MPI or PVM);
the paper's combined barrier explicitly reuses the message-passing layer's
binary-exchange communication.  :class:`Comm` provides the two-sided
primitives those algorithms need: tagged ``send``/``recv`` with
source/tag matching (MPI semantics: arrival order within a matching set).
A send completes locally, so a send followed by a receive overlaps the two —
the property that makes a binary-exchange phase cost one latency instead of
two (paper §3.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..net.fabric import Fabric
from ..net.message import Envelope, mp_endpoint
from ..net.params import SMALL_MSG_BYTES, NetworkParams
from ..net.topology import Topology
from ..sim.core import Environment
from ..sim.primitives import FilterStore
from .vector import CountVector

__all__ = ["Comm", "MPMessage", "ANY_SOURCE", "ANY_TAG"]

#: Wildcard source for :meth:`Comm.recv`.
ANY_SOURCE = -1
#: Wildcard tag for :meth:`Comm.recv`.
ANY_TAG = -1


@dataclass(slots=True)
class MPMessage:
    """A two-sided message."""

    src: int
    dst: int
    tag: int
    payload: Any


class Comm:
    """Per-process communicator endpoint."""

    def __init__(
        self,
        env: Environment,
        rank: int,
        topology: Topology,
        fabric: Fabric,
        params: NetworkParams,
    ):
        if not (0 <= rank < topology.nprocs):
            raise ValueError(f"rank {rank} out of range")
        self.env = env
        self.rank = rank
        self.nprocs = topology.nprocs
        self.topology = topology
        self.fabric = fabric
        self.params = params
        self.mailbox = FilterStore(env, name=f"mp[{rank}]")
        fabric.register(mp_endpoint(rank), self.mailbox)

    def __repr__(self) -> str:
        return f"<Comm rank={self.rank}/{self.nprocs}>"

    # -- point to point --------------------------------------------------------

    def send(self, dst: int, payload: Any, tag: int = 0, payload_bytes: Optional[int] = None):
        """Sub-generator: send ``payload`` to rank ``dst``.

        Charges the sender's per-message CPU overhead and returns once the
        message is handed to the transport (eager protocol: small-message
        sends complete locally, like MPI eager sends and GM sends).
        """
        if not (0 <= dst < self.nprocs):
            raise ValueError(f"destination rank {dst} out of range")
        if payload_bytes is None:
            payload_bytes = _estimate_bytes(payload)
        msg = MPMessage(src=self.rank, dst=dst, tag=tag, payload=payload)
        p = self.params
        if p.mp_call_us > 0.0:
            yield p.mp_call_us
        # fabric.send, inlined (sends sit under every collective phase and
        # each delegated frame taxes every later resume of the caller).
        fabric = self.fabric
        rank_node = fabric._rank_node
        src_node = rank_node[self.rank]
        overhead = p.shm_access_us if src_node == rank_node[dst] else p.o_send_us
        if overhead > 0.0:
            yield overhead
        fabric.post(
            self.rank, mp_endpoint(dst), msg,
            payload_bytes=payload_bytes, src_node=src_node,
        )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Sub-generator: receive a matching message; returns the MPMessage."""

        def matches(envelope: Envelope) -> bool:
            msg = envelope.payload
            return (source == ANY_SOURCE or msg.src == source) and (
                tag == ANY_TAG or msg.tag == tag
            )

        if self.params.mp_call_us > 0.0:
            yield self.params.mp_call_us
        envelope = yield self.mailbox.get(matches)
        p = self.params
        cost = p.shm_access_us if envelope.intra_node else p.o_recv_us
        if cost > 0.0:
            yield cost
        return envelope.payload


def _estimate_bytes(payload: Any) -> int:
    """Rough wire size of a payload: 8 bytes per scalar element."""
    if payload is None:
        return 0
    if isinstance(payload, (list, tuple, CountVector)):
        return max(8 * len(payload), 8)
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, bytes):
        return len(payload)
    return SMALL_MSG_BYTES
