"""Compute nodes and job allocations.

An :class:`Allocation` is the unit every experiment works with: the set
of compute nodes LSF assigned to one batch job, wired to a shared
fabric, each with its own NVMe.  HVAC servers are spawned per-allocation
(paper §III-C: the ``alloc_flags "hvac"`` job-script option), and the
cache lifecycle is coupled to the allocation lifecycle.
"""

from __future__ import annotations

from typing import Iterator

from ..simcore import Environment, RandomStreams
from .network import Fabric
from .nvme import NVMeDevice
from .specs import ClusterSpec

__all__ = ["ComputeNode", "Allocation"]


class ComputeNode:
    """One compute node: identity + NVMe.

    GPU/CPU compute time is modelled by the DL workload layer (it is a
    pure delay there); the node object carries the stateful local device.
    """

    def __init__(self, env: Environment, node_id: int, spec: ClusterSpec):
        self.env = env
        self.node_id = node_id
        self.spec = spec
        self.nvme = NVMeDevice(env, spec.node.nvme, name=f"node{node_id}.nvme")

    def __repr__(self) -> str:
        return f"<ComputeNode {self.node_id}>"


class Allocation:
    """A job's set of compute nodes plus the fabric connecting them."""

    def __init__(
        self,
        env: Environment,
        spec: ClusterSpec,
        n_nodes: int,
        rand: RandomStreams | None = None,
    ):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if n_nodes > spec.total_nodes:
            raise ValueError(
                f"requested {n_nodes} nodes but {spec.name} has {spec.total_nodes}"
            )
        self.env = env
        self.spec = spec
        self.metrics = env.metrics
        self.fabric = Fabric(env, spec.network, n_nodes, rand=rand)
        self.nodes = [ComputeNode(env, i, spec) for i in range(n_nodes)]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[ComputeNode]:
        return iter(self.nodes)

    def __getitem__(self, node_id: int) -> ComputeNode:
        return self.nodes[node_id]

    @property
    def aggregate_nvme_capacity(self) -> int:
        return sum(n.nvme.spec.capacity_bytes for n in self.nodes)

    @property
    def aggregate_nvme_read_bandwidth(self) -> float:
        return sum(n.nvme.spec.read_bandwidth for n in self.nodes)
