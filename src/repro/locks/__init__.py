"""Distributed lock algorithms.

The paper's pair: ``hybrid`` (the original ARMCI ticket + server-queue
algorithm) and ``mcs`` (the optimized software queuing lock).  Components
and related-work baselines: ``ticket`` and ``lh`` [9] (shared-memory,
single-node), ``server`` (pure server queue), ``raymond`` [18] and
``naimi`` [20] (token algorithms over message passing).
"""

from typing import Any

from .base import BaseLock, LockStats
from .hybrid import HybridLock
from .lh import LHLock
from .mcs import MCSLock
from .naimi import NaimiTrehelLock
from .raymond import RaymondLock
from .server_queue import ServerQueueLock
from .ticket import TicketLock

__all__ = [
    "BaseLock",
    "FIFO_KINDS",
    "HybridLock",
    "LHLock",
    "LOCK_KINDS",
    "LockStats",
    "MCSLock",
    "NaimiTrehelLock",
    "RaymondLock",
    "ServerQueueLock",
    "TicketLock",
    "lock_audit",
    "make_lock",
]

#: Registry of lock algorithms by short name (see module docstring).
LOCK_KINDS = {
    "ticket": TicketLock,
    "lh": LHLock,
    "server": ServerQueueLock,
    "hybrid": HybridLock,
    "mcs": MCSLock,
    "raymond": RaymondLock,
    "naimi": NaimiTrehelLock,
}

#: Lock algorithms whose grant order is FIFO in request-arrival order (the
#: token algorithms serve in tree/forwarding order instead).
FIFO_KINDS = ("ticket", "lh", "server", "hybrid", "mcs")


def lock_audit() -> dict:
    """The cross-rank lock audit record the chaos and fuzz workloads fill in."""
    return {
        "requests": [],
        "grants": [],
        "preemptions": [],
        "cs_owner": None,
        "mutex_ok": True,
    }


def make_lock(kind: str, ctx: Any, home_rank: int, name: str = "lock", **kwargs) -> BaseLock:
    """Construct a lock handle by algorithm name.

    ``kind`` is one of ``"ticket"``, ``"server"``, ``"hybrid"`` (the
    original ARMCI algorithm), or ``"mcs"`` (the paper's optimized
    software queuing lock).
    """
    try:
        cls = LOCK_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown lock kind {kind!r}; choose from {sorted(LOCK_KINDS)}"
        ) from None
    return cls(ctx, home_rank, name=name, **kwargs)
