"""Request/response protocol between user processes and server threads.

These dataclasses are the payloads carried by fabric envelopes to
``("srv", node)`` endpoints.  Requests that need a response carry a ``reply``
event; the requester blocks on it and the server triggers it through
:meth:`repro.net.fabric.Fabric.post_reply` (so the response pays the return
path's cost).  Fire-and-forget requests (non-blocking put, accumulate,
unlock) have no reply event — the essence of ARMCI's one-sided progress
rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..runtime.atomics import RMW
from ..sim.core import Event

__all__ = [
    "PutRequest",
    "GetRequest",
    "AccRequest",
    "RmwRequest",
    "FenceRequest",
    "LockRequest",
    "UnlockRequest",
    "RMW_OPS",
]

#: Read-modify-write opcodes the server understands (the keys of the one
#: opcode table, :data:`repro.runtime.atomics.RMW`).
RMW_OPS = tuple(RMW)


@dataclass(slots=True)
class PutRequest:
    """Non-blocking put: write ``values`` at ``(dst_rank, addr)``.

    ARMCI is optimized for non-contiguous transfers (paper §2): a single
    request may carry multiple ``segments`` — ``(addr, values)`` runs all
    written in one server visit (a strided/vector put).  When ``segments``
    is given, ``addr``/``values`` are ignored.
    """

    src_rank: int
    dst_rank: int
    addr: int = 0
    values: List[Any] = field(default_factory=list)
    segments: Optional[List[Tuple[int, List[Any]]]] = None
    #: In ack-mode subsystems (LAPI/VIA) the server acknowledges completion
    #: by succeeding this event; in GM-style confirm mode it is None.
    ack: Optional[Event] = None
    #: RMCSan operation id (None when no monitor is installed).  Lives on
    #: the request object, so retransmitted envelopes keep the same id.
    san_id: Optional[int] = None

    def total_cells(self) -> int:
        if self.segments is not None:
            return sum(len(vals) for _addr, vals in self.segments)
        return len(self.values)


@dataclass(slots=True)
class GetRequest:
    """Blocking get from ``(dst_rank, addr)``.

    Either a contiguous run of ``count`` cells, or — for ARMCI's
    non-contiguous transfers — a list of ``(addr, count)`` ``segments``
    fetched in one server visit (reply carries the concatenated values).
    """

    src_rank: int
    dst_rank: int
    addr: int = 0
    count: int = 0
    segments: Optional[List[Tuple[int, int]]] = None
    reply: Event = field(repr=False, default=None)  # type: ignore[assignment]
    #: RMCSan operation id (None when no monitor is installed).
    san_id: Optional[int] = None

    def total_cells(self) -> int:
        if self.segments is not None:
            return sum(count for _addr, count in self.segments)
        return self.count


@dataclass(slots=True)
class AccRequest:
    """Atomic accumulate: ``mem[addr+i] += scale * values[i]``."""

    src_rank: int
    dst_rank: int
    addr: int
    values: List[Any]
    scale: Any = 1
    ack: Optional[Event] = None
    #: RMCSan operation id (None when no monitor is installed).
    san_id: Optional[int] = None


@dataclass(slots=True)
class RmwRequest:
    """Atomic read-modify-write executed by the server on local memory."""

    src_rank: int
    dst_rank: int
    addr: int
    op: str
    args: Tuple[Any, ...] = ()
    reply: Event = field(repr=False, default=None)  # type: ignore[assignment]
    #: RMCSan operation id (None when no monitor is installed).
    san_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in RMW_OPS:
            raise ValueError(f"unknown rmw op {self.op!r}; known: {RMW_OPS}")


@dataclass(slots=True)
class FenceRequest:
    """GM-style fence confirmation request (paper §3.1.1).

    The server replies once all previously received memory operations from
    ``src_rank`` have completed; with in-order delivery, FIFO request
    processing makes "when this request is processed" exactly that point.
    """

    src_rank: int
    reply: Event = field(repr=False, default=None)  # type: ignore[assignment]


@dataclass(slots=True)
class LockRequest:
    """Hybrid-algorithm remote lock request (server takes a ticket for us)."""

    src_rank: int
    #: Rank owning the lock's memory (must live on the server's node).
    home_rank: int
    #: Base address of the [ticket, counter] cell pair in the home region.
    base_addr: int
    reply: Event = field(repr=False, default=None)  # type: ignore[assignment]


@dataclass(slots=True)
class UnlockRequest:
    """Hybrid-algorithm unlock: server increments counter, grants next.

    Fire-and-forget — the paper notes the releasing process "simply has to
    initiate sending a message to the server and need not wait for a reply".
    """

    src_rank: int
    home_rank: int
    base_addr: int
