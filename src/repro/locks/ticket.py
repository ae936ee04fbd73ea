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
    counter]`` pair at the home process and this handle's ticket number.
    The home — the pair and its server's queue — owns the queue's crash
    recovery (``docs/fault_model.md``, "The recovery protocol").
    """

    def __init__(self, ctx, home_rank: int, name: str, cells: str):
        super().__init__(ctx, home_rank, name)
        self._home_region = ctx.regions[home_rank]
        #: [ticket, counter] in the home process's region.
        self.base_addr = self._home_region.alloc_named(cells, 2, initial=0)
        self._mark_sync_cells(self._home_region, self.base_addr, 2)
        self._my_ticket = -1
        #: The home node's server: its queue and its ticket -> owner record.
        self._home = ctx.runtime.servers[self.home_node]
        self._owners = None  # that record, under a membership service
        if self._membership_svc is not None:
            self._owners = self._home.ticket_owners.setdefault(
                (home_rank, self.base_addr), (self._membership_svc.lock_key(self), {})
            )[1]

    def _san_ticket(self):
        return self._my_ticket

    def queue_link(self):
        # The fetch-add (at the home, or its server) orders requests.
        return (self._my_ticket - 1, self._my_ticket)

    def _acquire_local(self):
        """Figure 3, left: direct fetch&increment, then poll the counter."""
        p = self.params
        # Atomic fetch&increment on ticket.
        yield p.shm_atomic_us
        ticket = self._home_region.read(self.base_addr)
        self._home_region.write(self.base_addr, ticket + 1)
        self._my_ticket = ticket
        if self._owners is not None:
            self._owners[ticket] = self.ctx.rank
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
        """Ghost-advance: pass the lock on if the ticket the counter serves
        is ``dead``'s (it held the lock, or its grant was on its way).  The
        home skips a dead rank's other tickets when the counter reaches
        them, and a live waiter's request lives at the home: nothing to
        re-send."""
        lock = next(iter(handles.values()))
        p, owners = lock.params, lock._owners
        if p.server_lock_op_us > 0.0:
            yield p.server_lock_op_us
        counter = lock._home_region.read(lock.base_addr + 1)
        if owners.get(counter) != dead:
            return
        if p.shm_access_us > 0.0:
            yield p.shm_access_us
        if owners.get(counter) == dead:  # its own unlock did not land meanwhile
            svc.revoked(svc.lock_key(lock), dead, counter)
            yield from lock._home.advance_lock_counter(
                lock.home_rank, lock.base_addr, counter + 1
            )


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
        if self._commits and self._commit():
            return True
        yield from self._home.advance_lock_counter(
            self.home_rank, self.base_addr, self._my_ticket + 1
        )
        self.stats.handoffs += 1
