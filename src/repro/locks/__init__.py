"""Distributed lock algorithms.

The paper's pair: ``hybrid`` (the original ARMCI ticket + server-queue
algorithm) and ``mcs`` (the optimized software queuing lock).  Components
and related-work baselines: ``ticket`` and ``lh`` [9] (shared-memory,
single-node), ``server`` (pure server queue), ``raymond`` [18] and
``naimi`` [20] (token algorithms over message passing).

The workload oracle's lock rules live here too, for ``repro chaos``, the
fuzzer and ``repro check`` alike: :class:`LockAudit` (mutual exclusion,
preemption) and :func:`fifo_judged` (when grant order must be FIFO).
They import no lock algorithm: the classes, ``LOCK_KINDS`` and
:func:`make_lock` (:mod:`repro.locks.registry`) load on first use.
"""

from typing import Any, Dict, List, Optional, Tuple

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".base": "BaseLock, LockStats",
    ".hybrid": "HybridLock",
    ".lh": "LHLock",
    ".mcs": "MCSLock",
    ".naimi": "NaimiTrehelLock",
    ".raymond": "RaymondLock",
    ".server_queue": "ServerQueueLock",
    ".ticket": "TicketLock",
    ".registry": "LOCK_KINDS, make_lock",
})
__all__ += ["CS_US", "FIFO_KINDS", "LOCK_STAGGER_US", "LockAudit", "fifo_judged"]

#: Lock algorithms that grant in the order they linearise requests: the
#: ticket fetch-add (``hybrid`` takes one ``[ticket, counter]`` pair for
#: local and remote requesters alike) or the swap on a queue's tail word.
#: The token algorithms serve in tree/forwarding order instead.
FIFO_KINDS = ("ticket", "lh", "server", "hybrid", "mcs")

#: Spacing between consecutive lock requests of an audited workload.  FIFO
#: is judged against the order the lock linearised the requests, not the
#: order they were sent, so the stagger is not needed for the verdict; it
#: stays because every audited event stream (the chaos goldens, the fuzz
#: corpus and its digest) was built with it.
LOCK_STAGGER_US = 40.0
#: Time an audited workload spends inside each critical section.
CS_US = 5.0


class LockAudit:
    """Cross-rank record of one lock's critical sections.

    Ranks report ``enter`` with their lock handle once granted and
    ``leave`` at the end of the critical section.  A grant while the owner
    cell names a rank in the current view breaks mutual exclusion; over
    an out-of-view holder (dead or fenced; ``in_view`` implies alive) it
    is a recorded preemption, and that holder's stale exit is not a
    breach.  Each grant also records the handle's
    :meth:`~repro.locks.base.BaseLock.queue_link`, from which
    :meth:`linearized` rebuilds the order the lock took the requests in.
    Auditing yields nothing, so it never changes a run's event stream.
    """

    def __init__(self) -> None:
        #: ``(now, rank, it)`` per grant, and its ``(predecessor, own)``.
        self.grants: List[Tuple[float, int, int]] = []
        self.links: List[Tuple[Any, Any]] = []
        #: ``{"at_us", "dead_holder", "granted_to"}`` per preemption.
        self.preemptions: List[Dict[str, Any]] = []
        self.cs_owner: Optional[int] = None
        self.mutex_ok = True

    def enter(self, now: float, lock, it: int, membership) -> None:
        rank = lock.ctx.rank
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
        self.links.append(lock.queue_link())

    def leave(self, rank: int, membership) -> None:
        if self.cs_owner == rank:
            self.cs_owner = None
        elif membership is None or membership.in_view(rank):
            self.mutex_ok = False  # someone entered our CS
            self.cs_owner = None

    def granted(self, ranks) -> List[Tuple[int, int]]:
        """``(rank, it)`` of every grant to a rank in ``ranks``, in order."""
        return [(rank, it) for _t, rank, it in self.grants if rank in ranks]

    def linearized(self, ranks) -> List[Tuple[int, int]]:
        """``(rank, it)`` of every grant to a rank in ``ranks``, in the
        order the lock linearised the requests: each grant right behind
        the one whose token its request returned, even one granted later
        (the inversion :meth:`fifo_ok` catches).  A token is taken once,
        from its last publisher; a claim on a token the claimant's own
        rank publishes is void (a recycled LH cell)."""
        behind: Dict[int, int] = {}  # grant -> the grant queued right behind it
        published: Dict[Any, int] = {}
        claims: Dict[Any, int] = {}  # token -> a grant that came before its owner
        for j, (pred, own) in enumerate(self.links):
            i = published.pop(pred, None)
            if i is not None:
                behind[i] = j
            elif pred is not None:
                claims[pred] = j
            k = claims.pop(own, None)
            if k is not None and self.grants[k][1] != self.grants[j][1]:
                behind[j] = k
            elif own is not None:
                published[own] = j
        order: List[int] = []
        seen = set(behind.values())  # chains start at the other grants
        for j in [j for j in range(len(self.links)) if j not in seen] + sorted(seen):
            while j is not None and j not in order:
                order.append(j)
                j = behind.get(j)
        return [self.grants[j][1:] for j in order if self.grants[j][1] in ranks]

    def fifo_ok(self, ranks) -> bool:
        """Were ``ranks``' requests granted in the order the lock
        linearised them?"""
        return self.linearized(ranks) == self.granted(ranks)


def fifo_judged(kind: str, plan, stuck) -> bool:
    """Whether :meth:`LockAudit.fifo_ok` is a verdict: the kind promises
    FIFO, no transient window queues a frozen rank's requests across it,
    and no rank is ``stuck``."""
    return kind in FIFO_KINDS and not (plan.transient or stuck)
