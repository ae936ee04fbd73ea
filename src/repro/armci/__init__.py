"""ARMCI core: client API, request protocol, fence and barrier algorithms."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".api": "Armci, FENCE_MODES",
    ".barrier": "ALGORITHMS as BARRIER_ALGORITHMS",
    ".nonblocking": "NbHandle",
    ".strided": "stride_runs",
    ".requests": "AccRequest, FenceRequest, GetRequest, LockRequest, PutRequest, "
    "RmwRequest, UnlockRequest, RMW_OPS",
})
