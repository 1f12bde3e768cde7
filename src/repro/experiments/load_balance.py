"""Figure 15: per-server file distribution vs the ideal CDF.

The paper plots, for each node count, the CDF of the per-server file
share under HVAC's hash placement against the ideal (perfectly uniform)
distribution, finding it "fairly well-balanced" with a little deviation
below 128 nodes attributable to random file sizes.

We reproduce both views: file-count balance (pure hash quality) and
byte balance (where the size skew the paper mentions shows up).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis import empirical_cdf, format_table, gini, load_imbalance
from ..core import make_placement, placement_histogram
from ..dl import IMAGENET21K, SyntheticDataset

__all__ = ["LoadBalanceResult", "load_balance"]


@dataclass
class LoadBalanceResult:
    """Per-node-count balance statistics + CDFs."""

    dataset_name: str
    node_counts: list[int]
    #: per node count: sorted per-server file counts (CDF x-axis)
    file_cdfs: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    byte_cdfs: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    gini_files: dict[int, float] = field(default_factory=dict)
    gini_bytes: dict[int, float] = field(default_factory=dict)
    imbalance_files: dict[int, float] = field(default_factory=dict)
    imbalance_bytes: dict[int, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            [
                n,
                self.gini_files[n],
                self.imbalance_files[n],
                self.gini_bytes[n],
                self.imbalance_bytes[n],
            ]
            for n in self.node_counts
        ]
        return format_table(
            ["nodes", "gini(files)", "max/mean(files)", "gini(bytes)", "max/mean(bytes)"],
            rows,
            title=(
                f"Fig 15 ({self.dataset_name}): per-server load balance "
                "under hash placement (0 gini / 1.0 max-mean = ideal)"
            ),
        )


def load_balance(
    node_counts: list[int],
    n_files: int = 100_000,
    seed: int = 0,
) -> LoadBalanceResult:
    """Hash a sampled ImageNet21K over each allocation size (one server
    per node, the prototype's mod placement) and measure balance."""
    sample = min(n_files, IMAGENET21K.n_train_files)
    dataset, _ = SyntheticDataset.scaled(IMAGENET21K, sample, seed=seed)
    paths = dataset.paths()
    sizes = dataset.sizes
    result = LoadBalanceResult(
        dataset_name=IMAGENET21K.name, node_counts=list(node_counts)
    )
    for n_nodes in node_counts:
        placement = make_placement("mod", n_nodes)
        by_files = placement_histogram(placement, paths)
        by_bytes = placement_histogram(placement, paths, sizes)
        result.file_cdfs[n_nodes] = empirical_cdf(by_files / by_files.sum())
        result.byte_cdfs[n_nodes] = empirical_cdf(by_bytes / by_bytes.sum())
        result.gini_files[n_nodes] = gini(by_files)
        result.gini_bytes[n_nodes] = gini(by_bytes)
        result.imbalance_files[n_nodes] = load_imbalance(by_files)
        result.imbalance_bytes[n_nodes] = load_imbalance(by_bytes)
    return result
