"""Ticket lock on shared memory (the *local* half of the original hybrid).

A lock is two variables at the home process, ``ticket`` and ``counter``,
both initially zero (paper §3.2.1).  A requester atomically
fetch-and-increments ``ticket`` and spins until ``counter`` equals its
ticket number; release writes ``ticket_number + 1`` into ``counter``.

Because it spins on a shared variable, this algorithm only works when every
participant can map the lock's memory — i.e. all on the home node.  The
constructor enforces that; the :class:`~repro.locks.hybrid.HybridLock`
composes it with the server-based queue for remote requesters.
"""

from __future__ import annotations

from .base import BaseLock

__all__ = ["TicketLock", "TicketFamilyLock"]


class TicketFamilyLock(BaseLock):
    """What the ticket, hybrid and server locks share: the ``[ticket,
    counter]`` pair at the home process, this handle's ticket number, and
    — because recovery is a function of exactly that layout — one crash
    recovery coordinator.
    """

    def __init__(self, ctx, home_rank: int, name: str, cells: str):
        super().__init__(ctx, home_rank, name)
        self._home_region = ctx.regions[home_rank]
        #: [ticket, counter] in the home process's region.
        self.base_addr = self._home_region.alloc_named(cells, 2, initial=0)
        self._mark_sync_cells(self._home_region, self.base_addr, 2)
        self._my_ticket = -1

    def _fence_reset(self) -> None:
        self._my_ticket = -1

    def _san_ticket(self):
        return self._my_ticket if self._my_ticket >= 0 else None

    def _acquire_local(self):
        """Figure 3, left: direct fetch&increment, then poll the counter."""
        p = self.params
        # Atomic fetch&increment on ticket.
        yield p.shm_atomic_us
        ticket = self._home_region.read(self.base_addr)
        self._home_region.write(self.base_addr, ticket + 1)
        self._my_ticket = ticket
        # Spin on counter.
        yield p.shm_access_us
        counter_addr = self.base_addr + 1
        if self._home_region.read(counter_addr) == ticket:
            self.stats.uncontended_acquires += 1
            return
        yield from self._home_region.wait_until(
            counter_addr, lambda v: v == ticket, poll_detect_us=p.poll_detect_us
        )

    @classmethod
    def recover(cls, svc, handles, dead: int, transient: bool):
        """Skip dead ticket numbers; ghost-advance if the dead rank held it.

        A ticket from ``counter`` upward that no *live* handle owns and no
        live waiter is queued for belongs to a dead requester (or to a
        grant lost on its way to one): it is revoked and skipped.
        """
        lock = next(iter(handles.values()))
        key = svc.lock_key(lock)
        home_rank, base_addr = lock.home_rank, lock.base_addr
        cells = (home_rank, base_addr)
        p, region = lock.params, lock._home_region
        server = lock.ctx.runtime.servers[lock.home_node]
        waiters = server.lock_waiters(home_rank, base_addr)
        # Drop queued requests from dead ranks.
        for ticket, req in list(waiters.items()):
            if not svc.is_alive(req.src_rank):
                svc.revoke_ticket(key, cells, ticket, req.src_rank)
                del waiters[ticket]
        if p.server_lock_op_us > 0.0:
            yield p.server_lock_op_us
        counter = region.read(base_addr + 1)
        next_ticket = region.read(base_addr)
        # A dead shm-spinner's ticket may sit *behind* a live holder or
        # waiter, where the contiguous head scan below cannot reach (it
        # stops at the first live ticket, and no later declaration re-runs
        # it).  Revoke every not-yet-served ticket owned by a dead rank
        # here so skip_revoked can hop over it when the survivor ahead of
        # it eventually releases.
        for rank, h in handles.items():
            if not svc.is_alive(rank) and h._my_ticket >= counter:
                svc.revoke_ticket(key, cells, h._my_ticket, rank)
        # ``rank != dead`` matters only for a transient exclusion (the
        # excluded holder is alive, but its at-head ticket must be ghost-
        # advanced past).  Excluded *waiters* keep their tickets — the
        # head scan stops at them and they are served after they rejoin.
        live_tickets = {
            h._my_ticket
            for rank, h in handles.items()
            if svc.is_alive(rank) and rank != dead and h._my_ticket >= 0
        }
        new = counter
        while new < next_ticket and new not in live_tickets and new not in waiters:
            svc.revoke_ticket(key, cells, new, dead)
            new += 1
        if new == counter:
            return
        if p.shm_access_us > 0.0:
            yield p.shm_access_us
        yield from server.advance_lock_counter(home_rank, base_addr, new)


class TicketLock(TicketFamilyLock):
    """Pure shared-memory ticket lock (all requesters on the home node)."""

    kind = "ticket"

    def __init__(self, ctx, home_rank: int, name: str = "ticket"):
        super().__init__(ctx, home_rank, name, cells=f"ticket:{name}")
        if not self.is_home_local:
            raise ValueError(
                f"ticket lock {name!r} homed on node {self.home_node} is not "
                f"mappable from rank {ctx.rank} on node {ctx.node}; use "
                "HybridLock or MCSLock for remote locks"
            )

    _acquire = TicketFamilyLock._acquire_local

    def _release(self):
        # Write ticket+1 into counter, passing the lock to the next waiter.
        yield self.params.shm_access_us
        new_counter = self._my_ticket + 1
        if self._membership_svc is not None:
            # Skip ticket numbers revoked by crash recovery (dead waiters).
            new_counter = self._membership_svc.skip_revoked(
                self.home_rank, self.base_addr, new_counter
            )
        self._home_region.write(self.base_addr + 1, new_counter)
        self.stats.handoffs += 1
