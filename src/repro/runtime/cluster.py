"""Cluster runtime: wires the fabric, regions, servers, and client APIs.

:class:`ClusterRuntime` assembles a complete simulated system — the
client-server ARMCI architecture of paper Figure 1 — and runs SPMD
programs on it.  A program is a generator function ``main(ctx, *args)``
receiving a :class:`~repro.runtime.context.ProcessContext`.

Typical use::

    def main(ctx):
        addr = ctx.region.alloc(1, initial=0)
        yield from ctx.armci.put(ctx.ga((ctx.rank + 1) % ctx.nprocs, addr), [ctx.rank])
        yield from ctx.armci.barrier()
        return ctx.region.read(addr)

    results = ClusterRuntime(nprocs=4).run_spmd(main)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..armci.api import Armci
from ..mp.comm import Comm
from ..net.fabric import Fabric
from ..net.params import NetworkParams, myrinet2000
from ..net.topology import Topology
from ..sim.core import Environment, Process, SimulationError
from .context import ProcessContext
from .memory import Region
from .server import ServerThread

__all__ = ["ClusterRuntime", "DeadlockError"]


class DeadlockError(SimulationError):
    """The event queue drained while spawned programs were still alive."""


class ClusterRuntime:
    """A fully wired simulated cluster."""

    def __init__(
        self,
        nprocs: int,
        procs_per_node: int = 1,
        params: Optional[NetworkParams] = None,
        fence_mode: str = "confirm",
        placement: Optional[Iterable[int]] = None,
        monitor: Optional[Any] = None,
    ):
        self.params = params if params is not None else myrinet2000()
        self.env = Environment()
        # RMCSan: install the monitor before regions/servers are built so
        # every layer picks it up; an ambient trace capture (``repro ...
        # --trace-out``) records it, or attaches one when none was given.
        from ..analysis import capture

        self.monitor = capture.attach(self.env, monitor)
        self.topology = Topology(
            nprocs,
            procs_per_node=procs_per_node,
            placement=list(placement) if placement is not None else None,
        )
        self.fabric = Fabric(self.env, self.topology, self.params)
        # Crash-stop membership: only constructed when the fault plan
        # schedules ProcessCrash events (or transient partition / pause
        # windows, which need quorum tracking), so fault-free runs stay
        # byte-identical ("disabled means absent").
        self.membership = None
        plan = self.params.faults
        if plan is not None and (plan.crashes or plan.partitions or plan.pauses):
            from .membership import MembershipService

            self.membership = MembershipService(self)
            self.fabric.attach_membership(self.membership)
            self.membership.install()
        self.regions: Dict[int, Region] = {
            rank: Region(self.env, rank) for rank in range(nprocs)
        }
        self.servers: Dict[int, ServerThread] = {}
        for node in range(self.topology.nnodes):
            server = ServerThread(
                self.env, node, self.fabric, self.topology, self.params, self.regions
            )
            server.start()
            self.servers[node] = server
        self.comms: Dict[int, Comm] = {
            rank: Comm(self.env, rank, self.topology, self.fabric, self.params)
            for rank in range(nprocs)
        }
        self.armcis: Dict[int, Armci] = {
            rank: Armci(
                self.env,
                rank,
                self.topology,
                self.fabric,
                self.params,
                self.regions,
                self.servers,
                comm=self.comms[rank],
                fence_mode=fence_mode,
            )
            for rank in range(nprocs)
        }
        self._contexts: Dict[int, ProcessContext] = {}
        self._programs: List[Process] = []

    def __repr__(self) -> str:
        return (
            f"<ClusterRuntime nprocs={self.topology.nprocs} "
            f"nnodes={self.topology.nnodes}>"
        )

    @property
    def nprocs(self) -> int:
        return self.topology.nprocs

    def context(self, rank: int) -> ProcessContext:
        """The (cached) execution context of ``rank``."""
        ctx = self._contexts.get(rank)
        if ctx is None:
            ctx = ProcessContext(self, rank)
            self._contexts[rank] = ctx
        return ctx

    # -- program execution ------------------------------------------------------

    def spawn(
        self,
        main: Callable,
        *args: Any,
        ranks: Optional[Iterable[int]] = None,
    ) -> Dict[int, Process]:
        """Start ``main(ctx, *args)`` on the given ranks (default: all)."""
        if ranks is None:
            ranks = range(self.nprocs)
        procs: Dict[int, Process] = {}
        for rank in ranks:
            ctx = self.context(rank)
            proc = self.env.process(main(ctx, *args), name=f"{main.__name__}[{rank}]")
            if self.monitor is not None:
                self.monitor.register_process(proc, f"p{rank}")
            if self.membership is not None:
                self.membership.adopt(proc, rank)
            procs[rank] = proc
            self._programs.append(proc)
        return procs

    def run(self, until: Any = None) -> None:
        """Run the simulation; raises :class:`DeadlockError` on a hang.

        Server threads loop forever, so a drained queue with live programs
        means those programs are blocked on events nobody will trigger.
        """
        self.env.run(until=until)
        if until is None:
            stuck = [p for p in self._programs if p.is_alive]
            if stuck:
                details = ", ".join(
                    f"{p.name} (waiting on {p.target!r})" for p in stuck
                )
                raise DeadlockError(f"programs never finished: {details}")

    def run_spmd(self, main: Callable, *args: Any) -> List[Any]:
        """Spawn ``main`` on every rank, run to completion, return results.

        Results are ordered by rank.  Any rank's exception propagates.
        """
        procs = self.spawn(main, *args)
        self.run()
        results: List[Any] = []
        for rank in range(self.nprocs):
            proc = procs[rank]
            if not proc.triggered:  # pragma: no cover - guarded by run()
                raise DeadlockError(f"rank {rank} never finished")
            if not proc.ok:
                raise proc.value
            results.append(proc.value)
        return results

