"""Non-blocking ARMCI operations with explicit completion handles.

ARMCI's implicit non-blocking puts (the paper's default) return as soon as
the message is injected; completion is only observable through fences.
Real ARMCI additionally offers *explicit* handles (``ARMCI_NbPut`` /
``ARMCI_NbGet`` + ``ARMCI_Wait``/``ARMCI_Test``), which let an application
overlap a specific transfer with computation and then wait for just that
transfer.  A handle-based operation is not a second implementation: it
is the one put or get of :mod:`repro.armci.api` with its completion event
handed back instead of left to a fence (put) or waited on inline (get).

A non-blocking *get* exposes the reply event; a non-blocking *put*
requests a completion acknowledgement for that specific operation (this
works in both fence modes — the per-op ack rides alongside the normal
accounting, like ARMCI's handle-based completion on GM).
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from ..runtime.memory import GlobalAddress

if TYPE_CHECKING:  # pragma: no cover
    from .api import Armci

__all__ = ["NbHandle", "nb_put", "nb_get"]


class NbHandle:
    """Completion handle for one explicit non-blocking operation.

    A handle is the *same* put or get as the implicit form
    (:meth:`Armci._put` / :meth:`Armci._get`) with its completion event
    exposed; it is born done and stays so unless the operation is shipped
    to a server, which binds it to the request's ack or reply.
    """

    def __init__(self, armci: "Armci", kind: str):
        self.armci = armci
        #: "put" or "get".
        self.kind = kind
        #: The shipped request and its completion event while outstanding.
        self._req: Any = None
        self._event: Any = None
        self._value: Any = None

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"<NbHandle {self.kind} {state}>"

    def bind(self, req, event) -> None:
        """The operation went remote: ``event`` succeeds when it completes."""
        self._req = req
        self._event = event

    def _complete(self, value: Any) -> None:
        self._value = value
        self._event = None
        # RMCSan: the completion edge a blocking get's reply carries.
        self.armci._san_complete(self._req)

    @property
    def done(self) -> bool:
        """Non-blocking completion test (``ARMCI_Test``)."""
        if self._event is not None and self._event.processed:
            self._complete(self._event.value)
        return self._event is None

    def wait(self):
        """Sub-generator: block until the operation completes (``ARMCI_Wait``).

        For a get, returns the fetched values; for a put, returns None.
        """
        yield from self.armci._api()
        if not self.done:
            self._complete((yield self._event))
        return self._value if self.kind == "get" else None


def nb_put(armci: "Armci", dst: GlobalAddress, values) -> Any:
    """Sub-generator: explicit non-blocking put; returns an :class:`NbHandle`.

    Local (same-node) puts complete immediately.  Remote puts request a
    per-operation acknowledgement so the handle can be waited on without a
    full fence.
    """
    handle = NbHandle(armci, "put")
    yield from armci._put(dst.rank, [(dst.addr, list(values))], handle)
    return handle


def nb_get(armci: "Armci", src: GlobalAddress, count: int = 1) -> Any:
    """Sub-generator: explicit non-blocking get; returns an :class:`NbHandle`.

    ``handle.wait()`` yields the fetched list of values.
    """
    handle = NbHandle(armci, "get")
    handle._value = yield from armci._get(src.rank, [(src.addr, count)], handle)
    return handle
