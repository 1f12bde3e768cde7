"""DL training datasets (paper §IV-A3).

The two datasets the paper evaluates with:

* **ImageNet21K** — 11,797,632 training files, ~163 KB average (1.1 TB
  total for a compressed copy; reported total 1.1 TB for the sampled
  variant the paper used), long-tailed JPEG size distribution.
* **cosmoUniverse** — 524,288 training TFRecords, 1.3 TB total
  (≈2.5 MB/file), near-uniform sizes (preprocessed records).

plus a DeepCAM-like preset (MLPerf-HPC climate segmentation: large
HDF5 samples) used for Fig 8d / Fig 12b.

A :class:`SyntheticDataset` materializes paths and per-file sizes from a
seeded size distribution.  ``scaled(...)`` produces a *statistically
representative* smaller dataset for tractable event counts: same mean
file size and distribution shape, fewer files, with ``scale_factor``
recording the time-extrapolation multiplier (see DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..simcore import RandomStreams

__all__ = [
    "DatasetSpec",
    "SyntheticDataset",
    "IMAGENET21K",
    "COSMOUNIVERSE",
    "DEEPCAM_CLIMATE",
    "OPENIMAGES",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Statistical description of a training dataset."""

    name: str
    n_train_files: int
    n_valid_files: int
    mean_file_bytes: float
    #: lognormal sigma; 0 → all files exactly mean-sized
    size_sigma: float
    pfs_dir: str = "/gpfs/alpine/dataset"

    def scaled_to(self, n_files: int) -> "DatasetSpec":
        """Same distribution, fewer files (validation scales along)."""
        if n_files < 1:
            raise ValueError("n_files must be >= 1")
        ratio = n_files / self.n_train_files
        return replace(
            self,
            n_train_files=n_files,
            n_valid_files=max(1, int(self.n_valid_files * ratio)),
        )


#: ImageNet-21K as used for ResNet50 / TResNet_M (paper Table-less §IV-A3).
IMAGENET21K = DatasetSpec(
    name="imagenet21k",
    n_train_files=11_797_632,
    n_valid_files=561_052,
    mean_file_bytes=163_000.0,
    size_sigma=0.6,
    pfs_dir="/gpfs/alpine/imagenet21k/train",
)

#: cosmoUniverse TFRecords for CosmoFlow (1.3 TB / 524,288 samples).
COSMOUNIVERSE = DatasetSpec(
    name="cosmouniverse",
    n_train_files=524_288,
    n_valid_files=65_536,
    mean_file_bytes=2.48e6,
    size_sigma=0.05,
    pfs_dir="/gpfs/alpine/cosmoUniverse/train",
)

#: DeepCAM climate data: 768×1152×16 samples, large HDF5 files.
DEEPCAM_CLIMATE = DatasetSpec(
    name="deepcam-climate",
    n_train_files=121_266,
    n_valid_files=15_158,
    mean_file_bytes=14.3e6,
    size_sigma=0.02,
    pfs_dir="/gpfs/alpine/deepcam/train",
)

#: Open Images (mentioned in the paper's motivation: ~9 M images).
OPENIMAGES = DatasetSpec(
    name="openimages",
    n_train_files=9_000_000,
    n_valid_files=125_436,
    mean_file_bytes=210_000.0,
    size_sigma=0.7,
    pfs_dir="/gpfs/alpine/openimages/train",
)


class SyntheticDataset:
    """Materialized file list: paths + per-file sizes.

    Paths are stable functions of (dataset name, index) so placement and
    shuffles are reproducible across runs and backends.
    """

    def __init__(self, spec: DatasetSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed
        rand = RandomStreams(seed)
        n = spec.n_train_files
        if spec.size_sigma > 0:
            self.sizes = rand.lognormal_sizes(
                f"{spec.name}.sizes", spec.mean_file_bytes, spec.size_sigma, n
            )
        else:
            self.sizes = np.full(n, int(spec.mean_file_bytes), dtype=np.int64)
        self._prefix = spec.pfs_dir.rstrip("/")

    def __len__(self) -> int:
        return self.spec.n_train_files

    def path(self, index: int) -> str:
        if not 0 <= index < len(self):
            raise IndexError(index)
        return f"{self._prefix}/{self.spec.name}-{index:09d}"

    def size(self, index: int) -> int:
        return int(self.sizes[index])

    def paths(self) -> list[str]:
        return [self.path(i) for i in range(len(self))]

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    @classmethod
    def scaled(
        cls, spec: DatasetSpec, n_files: int, seed: int = 0
    ) -> tuple["SyntheticDataset", float]:
        """A representative sub-dataset plus its time scale factor."""
        ds = cls(spec.scaled_to(n_files), seed=seed)
        return ds, spec.n_train_files / n_files

    def epoch_order(self, epoch: int, seed: int = 0) -> np.ndarray:
        """The global shuffled file order for ``epoch``.

        Seeded by (dataset seed, shuffle seed, epoch) only — crucially
        *not* by the storage backend, which is the paper's Fig 14
        invariant: HVAC never perturbs the SGD shuffle sequence.
        """
        rand = RandomStreams(self.seed)
        return rand.child(f"shuffle-{seed}").shuffled(f"epoch-{epoch}", len(self))
