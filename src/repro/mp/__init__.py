"""MPI-like message passing over the simulated fabric."""

from .collectives import allgather, allreduce_sum, barrier
from .comm import ANY_SOURCE, ANY_TAG, Comm, MPMessage

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "MPMessage",
    "allgather",
    "allreduce_sum",
    "barrier",
]
