"""DNN model cost specifications (paper §IV-A2).

The four applications evaluated on Summit.  For the I/O study, a model
is characterized by what it costs *between* reads: per-sample
forward+backward GPU time (V100-class throughput) plus a fixed
per-iteration framework cost amortized over the batch.  The gradient
exchange is not charged: Horovod hides it behind backward compute, and
the paper's flat Fig 12 (batch size 4→128 moves training time only
2–4%) shows it was not visible per iteration on Summit.

Parameter counts follow the paper where it states them (ResNet50:
25.6 M; CosmoFlow: "more than 51 K") and MLPerf-HPC reference
implementations otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ITERATION_OVERHEAD",
    "ModelSpec",
    "RESNET50",
    "TRESNET_M",
    "COSMOFLOW",
    "DEEPCAM",
    "ALL_MODELS",
]


#: fixed per-iteration framework cost (data-loader step, kernel
#: launches) — the "round-trips" the paper says bigger batches amortize,
#: producing its observed 2–4% improvement (Fig 12).
ITERATION_OVERHEAD = 0.5e-3


@dataclass(frozen=True)
class ModelSpec:
    """Per-sample compute cost model for one DNN."""

    name: str
    n_parameters: int
    #: forward+backward throughput of ONE V100 GPU, samples/second
    samples_per_sec_per_gpu: float
    #: the per-GPU batch size used in the paper's figures
    default_batch_size: int

    def sample_seconds(self, batch: int) -> float:
        """GPU seconds charged per sample at per-GPU batch size ``batch``.

        The one compute cost both the event simulation and the analytic
        model charge between reads.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return 1.0 / self.samples_per_sec_per_gpu + ITERATION_OVERHEAD / batch


#: ResNet50 — "a large network with 228 layers and 25.6M parameters".
RESNET50 = ModelSpec(
    name="resnet50",
    n_parameters=25_600_000,
    samples_per_sec_per_gpu=360.0,
    default_batch_size=80,
)

#: TResNet_M — GPU-optimized ResNet variant; higher V100 throughput.
TRESNET_M = ModelSpec(
    name="tresnet_m",
    n_parameters=31_400_000,
    samples_per_sec_per_gpu=520.0,
    default_batch_size=80,
)

#: CosmoFlow — 3D CNN on cosmology volumes; tiny parameter count per the
#: paper ("more than 51K parameters"), compute-heavy 3D convolutions.
COSMOFLOW = ModelSpec(
    name="cosmoflow",
    n_parameters=51_000,
    samples_per_sec_per_gpu=80.0,
    default_batch_size=4,
)

#: DeepCAM — climate segmentation on 768×1152×16 images (Gordon Bell 2018).
#: Throughput calibrated so aggregate read demand exceeds the PFS
#: bandwidth ceiling at the paper's largest scale (Fig 8d's divergence).
DEEPCAM = ModelSpec(
    name="deepcam",
    n_parameters=56_000_000,
    samples_per_sec_per_gpu=36.0,
    default_batch_size=2,
)

ALL_MODELS = {m.name: m for m in (RESNET50, TRESNET_M, COSMOFLOW, DEEPCAM)}
