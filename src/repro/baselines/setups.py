"""The compared storage systems, packaged uniformly (paper §IV-A3).

Each setup builds one of the systems the paper compares —

* **GPFS** — every transaction goes to the shared PFS;
* **XFS-on-NVMe** — the dataset is fully staged to every node's NVMe
  before the run; the linear-scaling upper bound;
* **HVAC(i×1)** — the proposed cache with ``i`` server instances/node

— behind one interface: ``backend_for_node(node_id) -> FileBackend``.
Experiments and benchmarks construct a setup, hand its backends to a
:class:`~repro.dl.training.TrainingJob`, and read the metrics back.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional

from ..cluster import Allocation, ClusterSpec
from ..core import HVACDeployment
from ..dl.dataset import SyntheticDataset
from ..simcore import Environment, RandomStreams, run_all
from ..storage import GPFS, FileBackend, LocalFS

__all__ = [
    "SystemHandle",
    "StorageSetup",
    "GPFSSetup",
    "XFSSetup",
    "HVACSetup",
    "SYSTEM_SETUPS",
]


@dataclass
class SystemHandle:
    """A built, ready-to-use storage system for one experiment run."""

    label: str
    backend_for_node: Callable[[int], FileBackend]
    teardown: Callable[[], None] = lambda: None
    pfs: Optional[GPFS] = None
    deployment: Optional[HVACDeployment] = None
    #: simulated seconds spent staging data before the run (XFS only)
    stage_time: float = 0.0
    #: when staging is simulated event-by-event (XFSSetup with
    #: ``instant_stage=False``), call this to run the stage-in; it
    #: returns the simulated staging duration and updates stage_time.
    run_stage: Optional[Callable[[], float]] = None


class StorageSetup(abc.ABC):
    """Factory for one of the compared systems."""

    label: str = "abstract"

    @abc.abstractmethod
    def build(
        self,
        env: Environment,
        spec: ClusterSpec,
        n_nodes: int,
        dataset: SyntheticDataset,
        seed: int = 0,
    ) -> SystemHandle:
        """Construct the system for ``n_nodes`` and the given dataset."""


def _make_pfs(env: Environment, spec: ClusterSpec, n_nodes: int) -> GPFS:
    return GPFS(
        env,
        spec.pfs,
        n_client_nodes=n_nodes,
        client_link_bandwidth=spec.network.nic_bandwidth,
    )


class GPFSSetup(StorageSetup):
    """Direct PFS access — the paper's baseline."""

    label = "GPFS"

    def build(self, env, spec, n_nodes, dataset, seed=0) -> SystemHandle:
        pfs = _make_pfs(env, spec, n_nodes)
        return SystemHandle(
            label=self.label,
            backend_for_node=lambda node_id: pfs,
            pfs=pfs,
        )


class XFSSetup(StorageSetup):
    """XFS-on-NVMe: full dataset staged on every node (upper I/O bound).

    Staging happens before the measured run (as in the paper); its cost
    is *reported* in :attr:`SystemHandle.stage_time` but not charged to
    training time.  ``instant_stage=False`` simulates the stage-in reads
    (GPFS → every node) event-by-event instead of computing it
    analytically from bandwidth.
    """

    label = "XFS-on-NVMe"

    def __init__(self, instant_stage: bool = True):
        self.instant_stage = instant_stage

    def build(self, env, spec, n_nodes, dataset, seed=0) -> SystemHandle:
        alloc = Allocation(
            env, spec, n_nodes, rand=RandomStreams(seed).child("cluster")
        )
        backends = [LocalFS(env, node.node_id, node.nvme) for node in alloc]
        # Analytic stage-in estimate: the whole dataset flows once from
        # the PFS to each node, bounded by PFS aggregate bandwidth and
        # per-node NVMe write bandwidth (whichever binds).
        total = dataset.total_bytes
        pfs_bound = total * n_nodes / spec.pfs.aggregate_bandwidth
        nvme_bound = total / spec.node.nvme.write_bandwidth
        handle = SystemHandle(
            label=self.label,
            backend_for_node=lambda node_id: backends[node_id],
            stage_time=max(pfs_bound, nvme_bound),
        )
        if not self.instant_stage:
            handle.run_stage = self._make_stage(
                env, spec, n_nodes, dataset, backends, handle
            )
        return handle

    @staticmethod
    def _make_stage(env, spec, n_nodes, dataset, backends, handle):
        """Event-driven stage-in: every node pulls every file from the
        PFS and writes it to its NVMe (device time only; staged files
        take no space in the device's allocation accounting)."""
        pfs = _make_pfs(env, spec, n_nodes)

        def node_stage(node_id):
            fs = backends[node_id]
            for i in range(len(dataset)):
                size = dataset.size(i)
                yield from pfs.read_file(dataset.path(i), size, node_id)
                yield from fs.device.write(size)

        def run() -> float:
            t0 = env.now
            procs = [env.process(node_stage(n)) for n in range(n_nodes)]
            run_all(env, procs, "xfs.stage")
            handle.stage_time = env.now - t0
            return handle.stage_time

        return run


class HVACSetup(StorageSetup):
    """The proposed system: HVAC with ``instances`` servers per node."""

    def __init__(self, instances: int = 1):
        if instances < 1:
            raise ValueError("instances must be >= 1")
        self.instances = instances
        self.label = f"HVAC({instances}x1)"

    def build(self, env, spec, n_nodes, dataset, seed=0) -> SystemHandle:
        spec = spec.with_hvac(instances_per_node=self.instances)
        alloc = Allocation(
            env, spec, n_nodes, rand=RandomStreams(seed).child("cluster")
        )
        pfs = _make_pfs(env, spec, n_nodes)
        dep = HVACDeployment(alloc, pfs, seed=seed)
        return SystemHandle(
            label=self.label,
            backend_for_node=dep.client,
            teardown=dep.teardown,
            pfs=pfs,
            deployment=dep,
        )


#: the paper's Fig 8 lineup
SYSTEM_SETUPS: dict[str, StorageSetup] = {
    "gpfs": GPFSSetup(),
    "hvac1": HVACSetup(1),
    "hvac2": HVACSetup(2),
    "hvac4": HVACSetup(4),
    "xfs": XFSSetup(),
}
