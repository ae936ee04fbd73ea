"""Simulated cluster network: parameters, topology, fabric, faults, reliability."""

from .fabric import Fabric, FabricStats
from .faults import FaultInjector, FaultPlan, FaultStats, LinkFaults
from .message import Endpoint, Envelope, mp_endpoint, server_endpoint
from .params import (
    MSG_HEADER_BYTES,
    SMALL_MSG_BYTES,
    NetworkParams,
    gige,
    myrinet2000,
    quadrics_like,
)
from .reliable import ReliabilityError, ReliableDelivery
from .topology import Topology

__all__ = [
    "Endpoint",
    "Envelope",
    "Fabric",
    "FabricStats",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "LinkFaults",
    "MSG_HEADER_BYTES",
    "NetworkParams",
    "ReliabilityError",
    "ReliableDelivery",
    "SMALL_MSG_BYTES",
    "Topology",
    "gige",
    "mp_endpoint",
    "myrinet2000",
    "quadrics_like",
    "server_endpoint",
]
