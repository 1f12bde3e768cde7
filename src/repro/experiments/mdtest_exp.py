"""Figures 3 & 4: MDTest transactions/second, GPFS vs XFS-on-NVMe.

Reproduces the motivation experiment: 32 KB files expose the PFS
metadata ceiling; 8 MB files shift the constraint to bandwidth.  The
node-local XFS scales linearly in both regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import format_series
from ..cluster import ClusterSpec, KiB, MiB, SUMMIT
from ..dl import IMAGENET21K, RESNET50, SyntheticDataset
from ..model import AnalyticModel
from ..simcore import Environment
from ..workloads import MDTestConfig, run_mdtest
from .harness import resolve_setup

__all__ = ["MDTestScalingResult", "mdtest_scaling", "mdtest_scaling_analytic"]

SMALL_FILE = 32 * KiB  # Fig 3
LARGE_FILE = 8 * MiB  # Fig 4


@dataclass
class MDTestScalingResult:
    """tx/s per system across the node sweep."""

    file_size: int
    node_counts: list[int]
    tx_per_sec: dict[str, list[float]] = field(default_factory=dict)

    def ratio(self) -> list[float]:
        """XFS-on-NVMe over GPFS transactions/s, per node count."""
        xfs, gpfs = self.tx_per_sec["XFS-on-NVMe"], self.tx_per_sec["GPFS"]
        return [x / y for x, y in zip(xfs, gpfs)]

    def render(self) -> str:
        fig = "Fig 3" if self.file_size < MiB else "Fig 4"
        return format_series(
            "nodes",
            self.node_counts,
            self.tx_per_sec,
            title=(
                f"{fig}: MDTest {self.file_size // 1024} KB "
                "open-read-close transactions/s"
            ),
        )


def mdtest_scaling(
    file_size: int,
    node_counts: list[int],
    spec: ClusterSpec = SUMMIT,
    ranks_per_node: int = 6,
    files_per_rank: int = 16,
    systems: tuple[str, ...] = ("gpfs", "xfs"),
) -> MDTestScalingResult:
    """Event-driven MDTest sweep."""
    if not node_counts:
        raise ValueError("node_counts must not be empty")
    result = MDTestScalingResult(file_size=file_size, node_counts=list(node_counts))
    for system in systems:
        setup = resolve_setup(system)
        series = []
        for n_nodes in node_counts:
            env = Environment()
            # MDTest pre-creates its tree; dataset object only sizes caches.
            dataset, _ = SyntheticDataset.scaled(IMAGENET21K, 1024)
            handle = setup.build(env, spec, n_nodes, dataset)
            cfg = MDTestConfig(
                n_nodes=n_nodes,
                ranks_per_node=ranks_per_node,
                file_size=file_size,
                files_per_rank=files_per_rank,
            )
            res = run_mdtest(env, cfg, handle.backend_for_node, handle.label)
            series.append(res.tx_per_sec)
            handle.teardown()
        result.tx_per_sec[setup.label] = series
    return result


def mdtest_scaling_analytic(
    file_size: int,
    node_counts: list[int],
    spec: ClusterSpec = SUMMIT,
) -> MDTestScalingResult:
    """The same sweep from the closed-form model (instant, any scale),
    six ranks per node."""
    if not node_counts:
        raise ValueError("node_counts must not be empty")
    result = MDTestScalingResult(file_size=file_size, node_counts=list(node_counts))
    for system, label in (("gpfs", "GPFS"), ("xfs", "XFS-on-NVMe")):
        series = []
        for n_nodes in node_counts:
            model = AnalyticModel(spec, RESNET50, IMAGENET21K, n_nodes)
            series.append(model.predict_mdtest(system, file_size))
        result.tx_per_sec[label] = series
    return result
