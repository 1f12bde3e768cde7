"""HVAC core: the paper's contribution — client, server, cache, hashing."""

from .cache import CacheManager, EvictionPolicy, make_policy
from .client import HVACClient
from .deployment import HVACDeployment, client_key_order, client_label
from .prefetch import CachePrefetcher
from .hashing import (
    ConsistentHashPlacement,
    LocalityPlacement,
    ModuloPlacement,
    Placement,
    TopologyAwarePlacement,
    make_placement,
    placement_histogram,
)
from .server import HVACServer, ReadRequest

__all__ = [
    "CacheManager",
    "CachePrefetcher",
    "ConsistentHashPlacement",
    "EvictionPolicy",
    "HVACClient",
    "HVACDeployment",
    "client_key_order",
    "client_label",
    "HVACServer",
    "LocalityPlacement",
    "make_placement",
    "make_policy",
    "ModuloPlacement",
    "Placement",
    "placement_histogram",
    "TopologyAwarePlacement",
    "ReadRequest",
]
