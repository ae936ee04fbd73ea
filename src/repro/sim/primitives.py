"""Waitable synchronization primitives built on the simulation kernel.

These are the building blocks the cluster runtime uses:

* :class:`Store` — an unbounded FIFO of items with blocking ``get``; this is
  the mailbox type used for server request queues and MPI-style message
  queues.
* :class:`FilterStore` — a store whose ``get`` takes a predicate, used for
  tag/source matching in :mod:`repro.mp`.
* :class:`Broadcast` — a re-armable "condition variable" that wakes *all*
  waiters, used by memory write-watchers to model processes polling a flag.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from .core import Environment, Event

__all__ = ["Store", "FilterStore", "Broadcast"]


class Store:
    """Unbounded FIFO message store.

    ``put`` never blocks (the fabric models all back-pressure as time, not
    as blocking); ``get`` returns an :class:`Event` that fires with the next
    item, preserving both item order and waiter order.
    """

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        #: Total number of items ever put (for tracing/tests).
        self.total_put = 0

    def __repr__(self) -> str:
        return f"<Store {self.name} items={len(self.items)} waiters={len(self._getters)}>"

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        self.total_put += 1
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = self.env.event()
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def cancel_get(self, event: Event) -> bool:
        """Withdraw a pending ``get`` so it can never consume an item.

        Returns True if the event was still waiting (and was removed);
        False if it already fired (the caller then owns the item) or was
        never queued.
        """
        try:
            self._getters.remove(event)
            return True
        except ValueError:
            return False


class FilterStore:
    """A store whose getters select items with a predicate.

    Matching follows MPI semantics: a getter scans queued items in arrival
    order and takes the first match; an arriving item is offered to blocked
    getters in their arrival order.
    """

    def __init__(self, env: Environment, name: str = "filterstore"):
        self.env = env
        self.name = name
        self.items: list = []
        self._getters: list = []  # (event, predicate)
        self.total_put = 0

    def __repr__(self) -> str:
        return (
            f"<FilterStore {self.name} items={len(self.items)} "
            f"waiters={len(self._getters)}>"
        )

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        self.total_put += 1
        for i, (ev, pred) in enumerate(self._getters):
            if pred(item):
                del self._getters[i]
                ev.succeed(item)
                return
        self.items.append(item)

    def get(self, predicate: Callable[[Any], bool]) -> Event:
        ev = self.env.event()
        for i, item in enumerate(self.items):
            if predicate(item):
                del self.items[i]
                ev.succeed(item)
                return ev
        self._getters.append((ev, predicate))
        return ev


class Broadcast:
    """Re-armable broadcast signal.

    ``wait()`` returns an event that fires at the next ``fire()``.  Unlike a
    plain :class:`Event`, a Broadcast can fire many times; each ``fire``
    wakes exactly the waiters registered before it.
    """

    def __init__(self, env: Environment, name: str = "broadcast"):
        self.env = env
        self.name = name
        self._waiters: list = []
        #: Number of times fired (handy for tests).
        self.fired = 0

    def __repr__(self) -> str:
        return f"<Broadcast {self.name} waiters={len(self._waiters)} fired={self.fired}>"

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        ev = self.env.event()
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        self.fired += 1
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)
        return len(waiters)
