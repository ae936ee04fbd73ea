"""GA_Sync(): the operation the paper's Figure 7 measures.

``GA_Sync`` guarantees that all outstanding one-sided operations in the
system have completed and that all processes have reached the same point.

* ``current`` — the original Global Arrays implementation:
  ``ARMCI_AllFence()`` (every process serially confirms with every server)
  followed by the message-passing barrier.
* ``new`` — the paper's combined ``ARMCI_Barrier()`` (3-stage binary
  exchange).
* ``auto`` — the paper's §3.1.2 suggestion: choose per communication
  pattern (linear when few servers were touched).
* ``nic`` — the NIC-offloaded barrier: the programmable NIC co-processors
  run all three stages without host involvement (``repro.nic``).
* ``kary`` / ``dissemination`` / ``twolevel`` — the topology-aware host
  algorithms of :mod:`repro.topo.algorithms` (k-ary combining tree,
  dissemination sum, node-leader two-level).
"""

from __future__ import annotations

from ..mp import collectives

__all__ = ["ga_sync"]


#: GA_Sync mode -> ``ARMCI_Barrier()`` algorithm.  ``current`` is the one mode
#: that is not a combined barrier.
_BARRIER_ALGORITHM = {
    "new": "exchange",
    "auto": "auto",
    "nic": "nic",
    "kary": "kary",
    "dissemination": "dissemination",
    "twolevel": "twolevel",
}


def ga_sync(ctx, mode: str = "new"):
    """Sub-generator implementing GA_Sync in the selected mode."""
    if mode == "current":
        yield from ctx.armci.allfence()
        yield from collectives.barrier(ctx.comm)
    elif mode in _BARRIER_ALGORITHM:
        yield from ctx.armci.barrier(algorithm=_BARRIER_ALGORITHM[mode])
    else:
        modes = "/".join(("current", *_BARRIER_ALGORITHM))
        raise ValueError(f"unknown GA_Sync mode {mode!r}; use {modes}")
