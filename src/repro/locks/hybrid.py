"""The original ARMCI hybrid lock (paper §3.2.1, Figures 3 & 4).

Local requesters use the ticket algorithm directly on shared memory;
remote requesters send a lock request to the home node's server thread,
which takes a ticket on their behalf and queues them until granted.

The properties the paper criticizes — and that the MCS lock removes — are
modeled faithfully:

* **every** release contacts the server (even for a local lock), because
  only the server knows whether a queued *remote* requester should now be
  granted;
* passing the lock to a remote waiter costs **two** message latencies
  (release -> server, server -> waiter), plus a server wake-up if it was
  idle;
* on the plus side, release is **fire-and-forget**: the releasing process
  "simply has to initiate sending a message to the server and need not
  wait for a reply" — which is why Figure 10 shows the original release
  as cheaper than the new one.
"""

from __future__ import annotations

from ..armci.requests import LockRequest, UnlockRequest
from ..net.message import server_endpoint
from .ticket import TicketFamilyLock

__all__ = ["HybridLock"]


class HybridLock(TicketFamilyLock):
    """Original ARMCI ticket + server-queue hybrid lock."""

    kind = "hybrid"

    def __init__(self, ctx, home_rank: int, name: str = "hybrid"):
        super().__init__(ctx, home_rank, name, cells=f"hybrid:{name}")

    def _acquire(self):
        if self.is_home_local:
            yield from self._acquire_local()
        else:
            yield from self._acquire_remote()

    def _acquire_remote(self):
        """Figure 3, right: the server takes a ticket on our behalf."""
        reply = self.env.event()
        req = LockRequest(
            src_rank=self.ctx.rank,
            home_rank=self.home_rank,
            base_addr=self.base_addr,
            reply=reply,
        )
        self.stats.bump("remote_requests")
        yield from self.ctx.fabric.send(
            self.ctx.rank, server_endpoint(self.home_node), req
        )
        ticket = yield reply
        self._my_ticket = ticket

    def _release(self):
        """Figure 4: local or remote, contact the home server; no reply."""
        if self._commits and self._commit():
            return True
        req = UnlockRequest(
            src_rank=self.ctx.rank,
            home_rank=self.home_rank,
            base_addr=self.base_addr,
            ticket=self._my_ticket,
        )
        yield from self.ctx.fabric.send(
            self.ctx.rank, server_endpoint(self.home_node), req
        )
