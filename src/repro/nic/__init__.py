"""Programmable NIC co-processor model (the NIC-offloaded barrier).

Myrinet's LANai (and Quadrics' Elan) expose a user-programmable embedded
processor on the NIC.  Follow-on work to the paper (Yu/Buntinas/Graham/
Panda) runs the whole combining protocol there: the host posts a single
doorbell and the NICs execute the barrier among themselves, paying neither
MPI software-stack calls nor host wake-ups per phase.

:class:`~repro.nic.engine.NicEngine` models one such co-processor per node.
Engines are constructed lazily, on the first ``armci.barrier(algorithm=
"nic")`` call — runs that never request the NIC path construct nothing and
stay byte-identical.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".engine": "NicEngine, NicFrame, ensure_engines",
})
