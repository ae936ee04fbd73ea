"""MPI-like message passing over the simulated fabric."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".collectives": "allgather, allreduce_sum, barrier",
    ".comm": "ANY_SOURCE, ANY_TAG, Comm, MPMessage",
})
