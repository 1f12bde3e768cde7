"""Figures 10 & 11: epoch scaling and per-epoch breakdown.

Fig 10: total training time vs epoch count (ResNet50 and CosmoFlow at
512 nodes in the paper) — HVAC's advantage grows linearly with epochs
because only epoch 1 touches the PFS.

Fig 11: per-epoch anatomy at BS=4, 10 epochs, 512 nodes: ``epoch-1``
(cold), ``R_epoch`` (best non-first epoch), and ``avg_epoch``.  The
paper's headline here: epoch-1 ≈ GPFS for every HVAC variant, while the
cached epoch is ≈3× faster than GPFS for HVAC(4×1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import format_series, format_table
from ..cluster import ClusterSpec, SUMMIT
from ..dl import DatasetSpec, ModelSpec
from .harness import Scale, run_training

__all__ = [
    "EpochScalingResult",
    "epoch_scaling",
    "PerEpochResult",
    "per_epoch_analysis",
]


@dataclass
class EpochScalingResult:
    """Fig 10 panel: total minutes per system per epoch count."""

    model_name: str
    n_nodes: int
    epoch_counts: list[int]
    total_minutes: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        return format_series(
            "epochs",
            self.epoch_counts,
            self.total_minutes,
            title=(
                f"Fig 10 ({self.model_name}, {self.n_nodes} nodes): "
                "training time vs epochs, minutes"
            ),
        )


def epoch_scaling(
    model: ModelSpec,
    dataset_spec: DatasetSpec,
    epoch_counts: list[int],
    scale: Scale,
    n_nodes: int = 512,
    spec: ClusterSpec = SUMMIT,
    systems: tuple[str, ...] = ("gpfs", "hvac1", "hvac2", "hvac4", "xfs"),
) -> EpochScalingResult:
    """Simulate cold+warm once per system; extrapolate each epoch count.

    Valid because epochs ≥2 are statistically identical (uniform
    reshuffle of a fully cached dataset); the paper's own Fig 11
    presents exactly this cold/warm decomposition.
    """
    from ..baselines import SYSTEM_SETUPS

    result = EpochScalingResult(
        model_name=model.name, n_nodes=n_nodes, epoch_counts=list(epoch_counts)
    )
    for system in systems:
        label = SYSTEM_SETUPS[system].label
        res = run_training(system, model, dataset_spec, n_nodes, scale, spec=spec)
        result.total_minutes[label] = [
            res.extrapolate_total(e) / 60.0 for e in epoch_counts
        ]
    return result


@dataclass
class PerEpochResult:
    """Fig 11: epoch-1 / best-random-epoch / average-epoch per system."""

    model_name: str
    n_nodes: int
    epochs: int
    epoch1: dict[str, float] = field(default_factory=dict)
    r_epoch: dict[str, float] = field(default_factory=dict)
    avg_epoch: dict[str, float] = field(default_factory=dict)

    def speedup_vs_gpfs(self, label: str) -> float:
        """Cached-epoch speedup of ``label`` over GPFS (paper: ≈3×)."""
        return self.r_epoch["GPFS"] / self.r_epoch[label]

    def render(self) -> str:
        systems = list(self.epoch1)
        rows = [
            [label, self.epoch1[label], self.r_epoch[label], self.avg_epoch[label]]
            for label in systems
        ]
        return format_table(
            ["system", "epoch-1 (s)", "R_epoch (s)", "avg_epoch (s)"],
            rows,
            title=(
                f"Fig 11 ({self.model_name}, {self.n_nodes} nodes, "
                f"{self.epochs} epochs): per-epoch training time"
            ),
        )


def per_epoch_analysis(
    model: ModelSpec,
    dataset_spec: DatasetSpec,
    scale: Scale,
    n_nodes: int = 512,
    epochs: int = 4,
    spec: ClusterSpec = SUMMIT,
) -> PerEpochResult:
    """Simulate ``epochs`` full epochs at the paper's BS=4 for every
    system and decompose (paper: Eps=10)."""
    from ..baselines import SYSTEM_SETUPS

    result = PerEpochResult(model_name=model.name, n_nodes=n_nodes, epochs=epochs)
    for system in ("gpfs", "hvac1", "hvac2", "hvac4", "xfs"):
        label = SYSTEM_SETUPS[system].label
        res = run_training(
            system,
            model,
            dataset_spec,
            n_nodes,
            scale,
            spec=spec,
            batch_size=4,
            epochs=epochs,
        )
        result.epoch1[label] = res.first_epoch
        result.r_epoch[label] = res.best_random_epoch
        result.avg_epoch[label] = res.avg_epoch
    return result
