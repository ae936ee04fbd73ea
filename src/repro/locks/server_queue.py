"""Pure server-based queue lock (the *remote* half of the original hybrid).

Every requester — even one on the home node — sends a lock request to the
home server, which takes a ticket on its behalf and replies when granted;
every release likewise goes through the server.  This is the degenerate
configuration the hybrid improves on for local requesters ("server-based
locks require interaction with the server thread which can be reduced when
the lock is local", §3.2.1); it is included as a baseline for the ablation
studies and tests.
"""

from __future__ import annotations

from .hybrid import HybridLock

__all__ = ["ServerQueueLock"]


class ServerQueueLock(HybridLock):
    """The hybrid lock with its shared-memory fast path off.

    Same ``[ticket, counter]`` cells, server handlers, release and crash
    recovery as :class:`HybridLock`; only the acquire differs.
    """

    kind = "server"

    def _acquire(self):
        return self._acquire_remote()
