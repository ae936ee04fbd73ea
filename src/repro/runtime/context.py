"""Per-process execution context handed to SPMD program functions.

A simulated ARMCI program is a generator function ``main(ctx, *args)``; the
:class:`ProcessContext` gives it everything a rank sees: its rank, its
memory region, the ARMCI client, the message-passing communicator, and the
simulation clock.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from ..runtime.memory import GlobalAddress, Region
from ..sim.core import Environment
from ..sim.trace import Stopwatch

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.api import Armci
    from ..mp.comm import Comm
    from .cluster import ClusterRuntime

__all__ = ["ProcessContext"]


class ProcessContext:
    """Everything one simulated user process can touch."""

    def __init__(self, runtime: "ClusterRuntime", rank: int):
        self.runtime = runtime
        self.rank = rank
        self.env: Environment = runtime.env
        self.nprocs: int = runtime.topology.nprocs
        self.topology = runtime.topology
        self.params = runtime.params
        self.fabric = runtime.fabric
        self.node: int = runtime.topology.node_of(rank)
        self.region: Region = runtime.regions[rank]
        self.regions = runtime.regions
        self.server = runtime.servers[self.node]
        self.comm: "Comm" = runtime.comms[rank]
        self.armci: "Armci" = runtime.armcis[rank]
        #: Crash-stop membership service (None on a fault-free runtime).
        self.membership = getattr(runtime, "membership", None)

    def __repr__(self) -> str:
        return f"<ProcessContext rank={self.rank}/{self.nprocs} node={self.node}>"

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self.env.now

    def compute(self, us: float) -> float:
        """``us`` microseconds of local computation: ``yield ctx.compute(us)``
        sleeps that long (a delay, not an event — see
        :class:`~repro.sim.core.Process`)."""
        if not us >= 0:
            raise ValueError(f"compute({us!r}): not a duration")
        return us

    def stopwatch(self, name: str = "sw") -> Stopwatch:
        """A fresh virtual-time stopwatch."""
        return Stopwatch(self.env, name=f"r{self.rank}:{name}")

    def ga(self, rank: int, addr: int) -> GlobalAddress:
        """Build a global address (convenience)."""
        return GlobalAddress(rank, addr)
