"""Global Arrays layer: block-distributed 2-D arrays and GA_Sync."""

from .array import SYNC_MODES, GlobalArray
from .distribution import BlockDistribution, Section, default_pgrid
from .operations import dot
from .sync import ga_sync

__all__ = [
    "BlockDistribution",
    "GlobalArray",
    "SYNC_MODES",
    "Section",
    "default_pgrid",
    "dot",
    "ga_sync",
]
