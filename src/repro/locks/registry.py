"""Lock algorithms by short name (see :mod:`repro.locks`)."""

from typing import Any

from .base import BaseLock
from .hybrid import HybridLock
from .lh import LHLock
from .mcs import MCSLock
from .naimi import NaimiTrehelLock
from .raymond import RaymondLock
from .server_queue import ServerQueueLock
from .ticket import TicketLock

LOCK_KINDS = {
    "ticket": TicketLock,
    "lh": LHLock,
    "server": ServerQueueLock,
    "hybrid": HybridLock,
    "mcs": MCSLock,
    "raymond": RaymondLock,
    "naimi": NaimiTrehelLock,
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
