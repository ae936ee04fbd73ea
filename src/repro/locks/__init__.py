"""Distributed lock algorithms.

The paper's pair: ``hybrid`` (the original ARMCI ticket + server-queue
algorithm) and ``mcs`` (the optimized software queuing lock).  Components
and related-work baselines: ``ticket`` and ``lh`` [9] (shared-memory,
single-node), ``server`` (pure server queue), ``raymond`` [18] and
``naimi`` [20] (token algorithms over message passing).

The workload oracle's lock rules live here too, for ``repro chaos``, the
fuzzer and ``repro check`` alike: :class:`LockAudit` (mutual exclusion,
preemption) and :func:`fifo_judged` (when grant order must be FIFO).
"""

from typing import Any, Dict, List, Optional, Tuple

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
    "CS_US",
    "FIFO_KINDS",
    "HybridLock",
    "LHLock",
    "LOCK_KINDS",
    "LOCK_STAGGER_US",
    "LockAudit",
    "LockStats",
    "MCSLock",
    "NaimiTrehelLock",
    "RaymondLock",
    "ServerQueueLock",
    "TicketLock",
    "fifo_judged",
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

#: Spacing between consecutive lock requests of an audited workload.  It
#: exceeds the local/remote transit asymmetry (a local requester reaches
#: the home ticket counter in ~2us, a remote one in ~30us) so that
#: request-send order equals queue-arrival order on a fault-free network
#: and :meth:`LockAudit.fifo_ok` is meaningful.
LOCK_STAGGER_US = 40.0
#: Time an audited workload spends inside each critical section.
CS_US = 5.0


class LockAudit:
    """Cross-rank record of one lock's critical sections.

    Ranks report ``request`` before ``acquire()``, ``enter`` once granted
    and ``leave`` at the end of the critical section, as ``(now, rank,
    it)``.  A grant while the owner cell names a rank in the current view
    breaks mutual exclusion; over an out-of-view holder (dead or fenced;
    ``in_view`` implies alive) it is a recorded preemption, and that
    holder's stale exit is not a breach.  Auditing yields nothing, so it
    never changes a run's event stream.
    """

    def __init__(self) -> None:
        self.requests: List[Tuple[float, int, int]] = []
        self.grants: List[Tuple[float, int, int]] = []
        #: ``{"at_us", "dead_holder", "granted_to"}`` per preemption.
        self.preemptions: List[Dict[str, Any]] = []
        self.cs_owner: Optional[int] = None
        self.mutex_ok = True

    def request(self, now: float, rank: int, it: int) -> None:
        self.requests.append((now, rank, it))

    def enter(self, now: float, rank: int, it: int, membership) -> None:
        prev = self.cs_owner
        if prev is not None:
            if membership is not None and not membership.in_view(prev):
                self.preemptions.append(
                    {"at_us": now, "dead_holder": prev, "granted_to": rank}
                )
            else:
                self.mutex_ok = False
        self.cs_owner = rank
        self.grants.append((now, rank, it))

    def leave(self, rank: int, membership) -> None:
        if self.cs_owner == rank:
            self.cs_owner = None
        elif membership is None or membership.in_view(rank):
            self.mutex_ok = False  # someone entered our CS
            self.cs_owner = None

    def requested(self, ranks) -> List[Tuple[int, int]]:
        """``(rank, it)`` of every request by a rank in ``ranks``, in order."""
        return [(rank, it) for _t, rank, it in self.requests if rank in ranks]

    def granted(self, ranks) -> List[Tuple[int, int]]:
        """``(rank, it)`` of every grant to a rank in ``ranks``, in order."""
        return [(rank, it) for _t, rank, it in self.grants if rank in ranks]

    def fifo_ok(self, ranks) -> bool:
        """Were ``ranks``' requests granted in the order they were issued?"""
        return self.requested(ranks) == self.granted(ranks)


def fifo_judged(kind: str, plan, stuck) -> bool:
    """Whether :meth:`LockAudit.fifo_ok` is a verdict: the kind promises
    FIFO, no transient window queues a frozen rank's requests across it, no
    link fault reorders request arrival, and no rank is ``stuck``."""
    return kind in FIFO_KINDS and not (plan.transient or plan.reorders or stuck)


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
