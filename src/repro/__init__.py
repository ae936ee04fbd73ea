"""Reproduction of Buntinas, Saify, Panda & Nieplocha (IPPS 2003):
"Optimizing Synchronization Operations for Remote Memory Communication
Systems".

The package simulates an ARMCI-style one-sided communication library on a
cluster of SMP nodes (deterministic discrete-event simulation, virtual time
in microseconds) and implements both the original and the optimized
synchronization operations the paper studies:

* ``ARMCI_AllFence`` (linear) vs. the combined ``ARMCI_Barrier`` (binary
  exchange) -- :mod:`repro.armci`;
* the hybrid ticket/server lock vs. the MCS software queuing lock --
  :mod:`repro.locks`;
* a Global Arrays layer whose ``GA_Sync`` drives the Figure 7 experiment --
  :mod:`repro.ga`.

Quickstart::

    from repro import ClusterRuntime

    def main(ctx):
        addr = ctx.region.alloc(4, initial=0)
        peer = (ctx.rank + 1) % ctx.nprocs
        yield from ctx.armci.put(ctx.ga(peer, addr), [ctx.rank] * 4)
        yield from ctx.armci.barrier()
        return ctx.region.read_many(addr, 4)

    print(ClusterRuntime(nprocs=4).run_spmd(main))
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__ = lazy_exports(__name__, {
    ".net.params": "NetworkParams, gige, myrinet2000, quadrics_like",
    ".net.topology": "Topology",
    ".runtime.cluster": "ClusterRuntime, DeadlockError",
    ".runtime.memory": "NULL_PTR, GlobalAddress, Region",
})
__all__.append("__version__")
