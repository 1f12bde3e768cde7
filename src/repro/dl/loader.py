"""Epoch-shuffled, sharded data loading (paper §II-B, Fig 2).

Reproduces the access pattern that makes DL I/O hard for a PFS:

* before every epoch the *entire* dataset is reshuffled globally
  (seeded; identical across storage backends — the Fig 14 invariant);
* the shuffled order is sharded round-robin over all data-parallel
  ranks (Horovod-style ``DistributedSampler``);
* each rank reads its shard in batches, one whole-file
  ``<open, read, close>`` per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SyntheticDataset

__all__ = ["Shard", "EpochPlan", "make_epoch_plan"]


@dataclass(frozen=True)
class Shard:
    """One rank's slice of one epoch's shuffled order."""

    rank: int
    indices: np.ndarray  # file indices, in read order

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class EpochPlan:
    """The full I/O schedule of one epoch across all ranks."""

    epoch: int
    order: np.ndarray
    shards: tuple[Shard, ...]

    @property
    def n_ranks(self) -> int:
        return len(self.shards)


def make_epoch_plan(
    dataset: SyntheticDataset,
    epoch: int,
    n_ranks: int,
    shuffle_seed: int = 0,
    drop_remainder: bool = False,
) -> EpochPlan:
    """Shuffle globally, shard round-robin.

    ``drop_remainder=True`` truncates so every rank gets the same count
    (what synchronous SGD actually does to keep gradient exchange aligned).
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    order = dataset.epoch_order(epoch, seed=shuffle_seed)
    if drop_remainder:
        usable = (len(order) // n_ranks) * n_ranks
        order = order[:usable]
    shards = tuple(
        Shard(rank=r, indices=order[r::n_ranks]) for r in range(n_ranks)
    )
    return EpochPlan(epoch=epoch, order=order, shards=shards)
