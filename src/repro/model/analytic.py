"""Closed-form performance model (cross-check for the event simulation).

The discrete-event simulation is exact but O(transactions); this module
predicts the same quantities from saturation/bottleneck analysis so the
full 1→1,024-node sweeps of the paper can be produced instantly and the
DES validated against it at the scales where both run.

Model structure (all rates per second, sizes in bytes):

* Demand: ``n_nodes × procs_per_node × samples_per_sec_per_gpu`` files/s
  and the corresponding byte rate.
* GPFS ceiling: min(metadata transaction ceiling, aggregate bandwidth,
  per-node client links).
* XFS ceiling: per-node NVMe (files/s from latency+bandwidth; bytes/s).
* HVAC ceiling: min(NVMe, per-instance mover rate × instances, NIC for
  the remote fraction), with additive per-file latency in the
  latency-bound (unsaturated) regime.
* Epoch time = files / achieved_rate, where achieved rate accounts for
  both the throughput ceiling and the synchronous-read latency path.

The latency model treats each rank as a closed single-customer loop
(read file, then compute): per-file cycle = io_latency + compute, so a
rank achieves ``1 / cycle`` files/s unless a shared ceiling binds first.
That is exactly the structure of the simulated training loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.specs import ClusterSpec
from ..dl.dataset import DatasetSpec
from ..dl.models import ModelSpec

__all__ = ["AnalyticModel", "EpochPrediction"]


@dataclass(frozen=True)
class EpochPrediction:
    """Predicted steady-state epoch behaviour for one system."""

    system: str
    epoch_seconds: float
    bottleneck: str


class AnalyticModel:
    """Bottleneck analysis for one (cluster, model, dataset, scale) tuple."""

    def __init__(
        self,
        spec: ClusterSpec,
        model: ModelSpec,
        dataset: DatasetSpec,
        n_nodes: int,
        procs_per_node: int = 6,
        batch_size: int = 0,
    ):
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.spec = spec
        self.model = model
        self.dataset = dataset
        self.n_nodes = n_nodes
        self.procs_per_node = procs_per_node
        self.batch_size = batch_size or model.default_batch_size
        self.n_ranks = n_nodes * procs_per_node

    # -- demand ------------------------------------------------------------
    @property
    def files_per_epoch(self) -> int:
        return self.dataset.n_train_files

    #: batch-arrival correction for the data-mover queue: ranks issue
    #: reads in back-to-back iteration bursts, so waiting time follows
    #: M^[X]/M/1 with burst size k (≈ (k+1)/2 × the Poisson wait).
    #: k≈8 matches the simulator's iteration granularity and the DES
    #: measurements (see EXPERIMENTS.md cross-validation).
    mover_burst_factor: float = 4.5

    @property
    def compute_sec_per_file(self) -> float:
        return self.model.sample_seconds(self.batch_size)

    @property
    def mean_file_bytes(self) -> float:
        return self.dataset.mean_file_bytes

    # -- per-system latency (seconds per file, unloaded) ---------------------
    def gpfs_latency(self) -> float:
        pfs = self.spec.pfs
        op = 1.0 / pfs.metadata_ops_per_sec
        meta = (pfs.ops_per_open + pfs.ops_per_close) * op + 2 * pfs.client_overhead
        read = pfs.data_latency + self.mean_file_bytes / pfs.data_server_bandwidth
        link = self.mean_file_bytes / self.spec.network.nic_bandwidth
        return meta + read + link

    def xfs_latency(self) -> float:
        nvme = self.spec.node.nvme
        return (
            nvme.fs_open_close_latency
            + nvme.read_latency
            + self.mean_file_bytes / nvme.read_bandwidth
        )

    def hvac_latency(self, instances: int) -> float:
        """Warm-epoch per-file latency through the HVAC path.

        Includes the queueing delay at the per-instance data-mover
        thread (M/D/1 waiting time), solved by fixed point with the
        closed-loop demand: per-rank request rate depends on the
        latency, which depends on the mover utilization, which depends
        on the rate.  This is what separates HVAC(1×1) from HVAC(4×1)
        below the hard mover ceiling (Fig 9b).
        """
        hvac = self.spec.hvac
        net = self.spec.network
        nvme = self.spec.node.nvme
        local_fraction = 1.0 / max(1, self.n_nodes)  # uniform hashing
        client = 3 * hvac.client_request_overhead  # open, read, close hooks
        rpc = 2 * (net.per_message_overhead + net.link_latency) + 2e-6
        service = hvac.server_request_overhead
        read = nvme.read_latency + self.mean_file_bytes / nvme.read_bandwidth
        remote_bulk = self.mean_file_bytes / net.nic_bandwidth + net.link_latency
        local_bulk = self.mean_file_bytes / net.loopback_bandwidth
        bulk = local_fraction * local_bulk + (1 - local_fraction) * remote_bulk
        # NVMe read and bulk transfer are pipelined chunks: pay the max.
        fixed = client + rpc + max(read, bulk)

        latency = fixed + service
        for _ in range(8):  # fixed point converges in a few rounds
            cycle = latency + self.compute_sec_per_file
            per_node_rate = self.procs_per_node / cycle
            rho = min(per_node_rate * service / instances, 0.95)
            wait = self.mover_burst_factor * rho * service / (1.0 - rho)
            latency = fixed + service + wait
        return latency

    # -- throughput ceilings (files/s, whole job) ----------------------------
    def gpfs_ceiling(self) -> tuple[float, str]:
        pfs = self.spec.pfs
        ops_per_tx = pfs.ops_per_open + pfs.ops_per_close
        meta = pfs.aggregate_metadata_ops / ops_per_tx
        bw = pfs.aggregate_bandwidth / self.mean_file_bytes
        nsd_req = pfs.n_data_servers / (
            pfs.data_server_overhead
            + self.mean_file_bytes / pfs.data_server_bandwidth
        )
        links = (
            self.n_nodes * self.spec.network.nic_bandwidth / self.mean_file_bytes
        )
        ceiling = min(meta, bw, nsd_req, links)
        name = {
            meta: "metadata",
            bw: "pfs-bandwidth",
            nsd_req: "nsd-requests",
            links: "client-links",
        }[ceiling]
        return ceiling, name

    def xfs_ceiling(self) -> tuple[float, str]:
        nvme = self.spec.node.nvme
        per_node_bw = nvme.read_bandwidth / self.mean_file_bytes
        per_node_iops = nvme.queue_depth / (
            nvme.read_latency + self.mean_file_bytes / nvme.read_bandwidth
        )
        per_node = min(per_node_bw, per_node_iops)
        name = "nvme-bandwidth" if per_node == per_node_bw else "nvme-iops"
        return per_node * self.n_nodes, name

    def hvac_ceiling(self, instances: int) -> tuple[float, str]:
        hvac = self.spec.hvac
        nvme_rate, _ = self.xfs_ceiling()
        mover = self.n_nodes * instances / hvac.server_request_overhead
        remote_frac = 1 - 1.0 / max(1, self.n_nodes)
        nic = (
            self.n_nodes
            * self.spec.network.nic_bandwidth
            / (self.mean_file_bytes * max(remote_frac, 1e-9))
        )
        ceiling = min(nvme_rate, mover, nic)
        name = {nvme_rate: "nvme", mover: "data-mover", nic: "network"}[ceiling]
        return ceiling, name

    # -- epoch predictions ---------------------------------------------------
    def _epoch(
        self, system: str, latency: float, ceiling: float, bottleneck: str
    ) -> EpochPrediction:
        # Latency-bound per-rank rate (closed-loop: io then compute)...
        per_rank = 1.0 / (latency + self.compute_sec_per_file)
        demand = per_rank * self.n_ranks
        # ...clipped by the shared throughput ceiling.
        achieved = min(demand, ceiling)
        if achieved == demand:
            bottleneck = "compute+latency"
        epoch = self.files_per_epoch / achieved
        return EpochPrediction(
            system=system,
            epoch_seconds=epoch,
            bottleneck=bottleneck,
        )

    def predict_gpfs(self) -> EpochPrediction:
        ceiling, name = self.gpfs_ceiling()
        return self._epoch("GPFS", self.gpfs_latency(), ceiling, name)

    def predict_xfs(self) -> EpochPrediction:
        ceiling, name = self.xfs_ceiling()
        return self._epoch("XFS-on-NVMe", self.xfs_latency(), ceiling, name)

    def predict_hvac(self, instances: int = 1) -> EpochPrediction:
        ceiling, name = self.hvac_ceiling(instances)
        return self._epoch(
            f"HVAC({instances}x1)", self.hvac_latency(instances), ceiling, name
        )

    def predict_hvac_cold(self, instances: int = 1) -> EpochPrediction:
        """First (cold) epoch: every file also flows once through GPFS."""
        gpfs_ceiling, gname = self.gpfs_ceiling()
        hvac_ceiling, hname = self.hvac_ceiling(instances)
        ceiling = min(gpfs_ceiling, hvac_ceiling)
        name = gname if ceiling == gpfs_ceiling else hname
        latency = self.gpfs_latency() + self.hvac_latency(instances)
        return self._epoch(f"HVAC({instances}x1)-cold", latency, ceiling, name)

    def predict_mdtest(self, system: str, file_size: int) -> float:
        """Transactions/s for an MDTest-style pure-I/O loop (no compute),
        one rank per process slot."""
        n_ranks = self.n_ranks
        if system == "gpfs":
            pfs = self.spec.pfs
            latency = (
                (pfs.ops_per_open + pfs.ops_per_close) / pfs.metadata_ops_per_sec
                + 2 * pfs.client_overhead
                + pfs.data_latency
                + file_size / pfs.data_server_bandwidth
                + file_size / self.spec.network.nic_bandwidth
            )
            ops_per_tx = pfs.ops_per_open + pfs.ops_per_close
            ceiling = min(
                pfs.aggregate_metadata_ops / ops_per_tx,
                pfs.aggregate_bandwidth / file_size,
            )
        elif system == "xfs":
            nvme = self.spec.node.nvme
            latency = (
                nvme.fs_open_close_latency
                + nvme.read_latency
                + file_size / nvme.read_bandwidth
            )
            ceiling = self.n_nodes * min(
                nvme.read_bandwidth / file_size,
                nvme.queue_depth / (nvme.read_latency + file_size / nvme.read_bandwidth),
            )
        else:
            raise ValueError(f"unknown MDTest system {system!r}")
        return min(n_ranks / latency, ceiling)
