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

from ..armci.requests import LockRequest, UnlockRequest
from ..net.message import server_endpoint
from .ticket import TicketFamilyLock

__all__ = ["ServerQueueLock"]


class ServerQueueLock(TicketFamilyLock):
    """Server-mediated ticket queue lock, no shared-memory fast path."""

    kind = "server"

    def __init__(self, ctx, home_rank: int, name: str = "server"):
        # Shares the [ticket, counter] layout (and server handlers) with the
        # hybrid lock.
        super().__init__(ctx, home_rank, name, cells=f"hybrid:{name}")

    def _acquire(self):
        reply = self.env.event()
        req = LockRequest(
            src_rank=self.ctx.rank,
            home_rank=self.home_rank,
            base_addr=self.base_addr,
            reply=reply,
        )
        self.stats.bump("server_requests")
        yield from self.ctx.fabric.send(
            self.ctx.rank, server_endpoint(self.home_node), req
        )
        self._my_ticket = yield reply

    def _release(self):
        req = UnlockRequest(
            src_rank=self.ctx.rank,
            home_rank=self.home_rank,
            base_addr=self.base_addr,
        )
        self.stats.bump("unlock_messages")
        yield from self.ctx.fabric.send(
            self.ctx.rank, server_endpoint(self.home_node), req
        )
