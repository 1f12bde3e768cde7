"""Hash-based I/O redirection (paper §III-E).

HVAC determines the cache location of a file *algorithmically* from the
file path and the job's node allocation — no metadata store, no
broadcast lookups.  Each file is homed at exactly one HVAC server
(replication, §III-H, extends this to an ordered replica set).

Two schemes are provided:

* ``mod`` — ``hash(path) % n_servers``; what the HVAC prototype ships.
* ``consistent`` — a consistent-hash ring with virtual nodes (the
  CephFS/GekkoFS-style alternative the paper cites); minimizes movement
  when the server set changes and is the natural base for failover.

Both use a process-stable 64-bit hash so placement is reproducible
across runs and identical for every client — the property that lets
clients find data without asking anyone.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from ..simcore import stable_hash64

__all__ = [
    "Placement",
    "ModuloPlacement",
    "ConsistentHashPlacement",
    "LocalityPlacement",
    "TopologyAwarePlacement",
    "make_placement",
    "placement_histogram",
]


class Placement:
    """Maps file paths to an ordered list of server indices."""

    def __init__(self, n_servers: int, replication_factor: int = 1):
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if not 1 <= replication_factor <= n_servers:
            raise ValueError("replication_factor must be in [1, n_servers]")
        self.n_servers = n_servers
        self.replication_factor = replication_factor

    def home(self, path: str) -> int:
        """The primary server for ``path``."""
        return self.replicas(path)[0]

    def replicas(self, path: str, client: int | None = None) -> list[int]:
        """Ordered replica set: primary first, then failover targets."""
        raise NotImplementedError


class ModuloPlacement(Placement):
    """``hash(path) % n`` with successive servers as replicas."""

    def replicas(self, path: str, client: int | None = None) -> list[int]:
        primary = stable_hash64("hvac-home", path) % self.n_servers
        return [
            (primary + i) % self.n_servers for i in range(self.replication_factor)
        ]


class ConsistentHashPlacement(Placement):
    """Consistent hashing with virtual nodes.

    Replicas are the next *distinct physical servers* clockwise on the
    ring, so losing a server reassigns only its arc.
    """

    def __init__(
        self,
        n_servers: int,
        replication_factor: int = 1,
        vnodes: int = 64,
    ):
        super().__init__(n_servers, replication_factor)
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        points: list[tuple[int, int]] = []
        for server in range(n_servers):
            for v in range(vnodes):
                points.append((stable_hash64("hvac-ring", server, v), server))
        points.sort()
        self._ring_keys = [k for k, _ in points]
        self._ring_servers = [s for _, s in points]

    def replicas(self, path: str, client: int | None = None) -> list[int]:
        key = stable_hash64("hvac-home", path)
        idx = bisect.bisect_right(self._ring_keys, key) % len(self._ring_keys)
        out: list[int] = []
        i = idx
        while len(out) < self.replication_factor:
            server = self._ring_servers[i]
            if server not in out:
                out.append(server)
            i = (i + 1) % len(self._ring_keys)
        return out


class LocalityPlacement(Placement):
    """Deterministic local/remote split for the Fig 13 cache-size study.

    The paper manually controls what fraction of the dataset is resident
    on the training node ("L%") versus remote nodes ("R%").  Placement
    here depends on the *client*: a stable per-(path) coin with
    probability ``local_fraction`` homes the file at one of the client
    node's own servers; otherwise at a server on a different node.
    """

    def __init__(
        self,
        n_servers: int,
        servers_per_node: int,
        local_fraction: float,
        replication_factor: int = 1,
    ):
        super().__init__(n_servers, replication_factor)
        if not 0 <= local_fraction <= 1:
            raise ValueError("local_fraction must be in [0, 1]")
        if n_servers % servers_per_node:
            raise ValueError("n_servers must be a multiple of servers_per_node")
        self.servers_per_node = servers_per_node
        self.local_fraction = local_fraction
        self.n_nodes = n_servers // servers_per_node

    def replicas(self, path: str, client: int | None = None) -> list[int]:
        if client is None:
            raise ValueError("LocalityPlacement requires the client node id")
        h = stable_hash64("hvac-local", path)
        coin = (h & 0xFFFFFFFF) / 0x100000000
        inst = (h >> 32) % self.servers_per_node
        if coin < self.local_fraction or self.n_nodes == 1:
            node = client
        else:
            other = stable_hash64("hvac-rnode", path) % (self.n_nodes - 1)
            node = other if other < client else other + 1
        primary = node * self.servers_per_node + inst
        return [
            (primary + i * self.servers_per_node) % self.n_servers
            for i in range(self.replication_factor)
        ]


class TopologyAwarePlacement(Placement):
    """Rack-aware replica placement (paper conclusion: "job topology
    partitioning enabling redundancy for reliability and performance").

    The primary home comes from a base placement; each additional
    replica is forced into a *different rack* (fault domain), so a rack
    loss never takes out every copy, and readers can prefer a same-rack
    replica to keep traffic off oversubscribed uplinks.
    """

    def __init__(
        self,
        base: Placement,
        servers_per_node: int,
        rack_size: int,
        replication_factor: int = 2,
    ):
        if rack_size < 1:
            raise ValueError("rack_size must be >= 1")
        if servers_per_node < 1:
            raise ValueError("servers_per_node must be >= 1")
        super().__init__(base.n_servers, replication_factor)
        self.base = base
        self.servers_per_node = servers_per_node
        self.rack_size = rack_size
        self.servers_per_rack = servers_per_node * rack_size
        self.n_racks = -(-base.n_servers // self.servers_per_rack)
        if self.replication_factor > self.n_racks:
            raise ValueError(
                f"replication factor {replication_factor} exceeds "
                f"{self.n_racks} rack fault domains"
            )

    def rack_of(self, server: int) -> int:
        return (server // self.servers_per_node) // self.rack_size

    def replicas(self, path: str, client: int | None = None) -> list[int]:
        primary = self.base.home(path)
        out = [primary]
        base_rack = self.rack_of(primary)
        for k in range(1, self.replication_factor):
            rack = (base_rack + k) % self.n_racks
            lo = rack * self.servers_per_rack
            hi = min(lo + self.servers_per_rack, self.n_servers)
            out.append(lo + stable_hash64("hvac-topo", path, k) % (hi - lo))
        return out


def make_placement(
    scheme: str,
    n_servers: int,
    replication_factor: int = 1,
    vnodes: int = 64,
) -> Placement:
    """Factory keyed by :attr:`HVACSpec.hash_scheme`."""
    if scheme == "mod":
        return ModuloPlacement(n_servers, replication_factor)
    if scheme == "consistent":
        return ConsistentHashPlacement(n_servers, replication_factor, vnodes)
    raise ValueError(f"unknown hash scheme {scheme!r}")


def placement_histogram(
    placement: Placement,
    paths: Sequence[str],
    sizes: Sequence[int] | None = None,
) -> np.ndarray:
    """Files (or bytes, if ``sizes`` given) homed per server.

    This is the quantity behind the paper's Fig 15 load-distribution CDF.
    """
    counts = np.zeros(placement.n_servers, dtype=np.float64)
    if sizes is None:
        for path in paths:
            counts[placement.home(path)] += 1
    else:
        if len(sizes) != len(paths):
            raise ValueError("paths and sizes must have equal length")
        for path, size in zip(paths, sizes):
            counts[placement.home(path)] += size
    return counts
