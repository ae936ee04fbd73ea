"""Simulated cluster network: parameters, topology, fabric, faults, reliability."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".fabric": "Fabric, FabricStats",
    ".faults": "FaultInjector, FaultPlan, FaultStats, LinkFaults",
    ".message": "Endpoint, Envelope, mp_endpoint, server_endpoint",
    ".params": "MSG_HEADER_BYTES, SMALL_MSG_BYTES, NetworkParams, gige, myrinet2000, "
    "quadrics_like",
    ".reliable": "ReliabilityError, ReliableDelivery",
    ".topology": "Topology",
})
