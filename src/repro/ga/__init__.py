"""Global Arrays layer: block-distributed 2-D arrays and GA_Sync."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".array": "SYNC_MODES, GlobalArray",
    ".distribution": "BlockDistribution, Section, default_pgrid",
    ".operations": "dot",
    ".sync": "ga_sync",
})
