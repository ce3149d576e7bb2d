"""Storage-node assembly: host ↔ controllers ↔ disks.

:mod:`repro.node.node` wires controllers and a host cost model into a
single :class:`~repro.io.BlockDevice`; :mod:`repro.node.topology` provides
the paper's three configurations (base 1×1, medium 2×4, large 15-16×4).
"""

from repro.node.hedging import HedgedVolume, HedgePolicy, \
    StragglerEstimator
from repro.node.node import HostParams, StorageNode
from repro.node.striping import StripedVolume
from repro.node.topology import (
    NodeTopology,
    base_topology,
    build_node,
    large_topology,
    medium_topology,
)

__all__ = [
    "HedgePolicy",
    "HedgedVolume",
    "HostParams",
    "NodeTopology",
    "StorageNode",
    "StragglerEstimator",
    "StripedVolume",
    "base_topology",
    "build_node",
    "large_topology",
    "medium_topology",
]
