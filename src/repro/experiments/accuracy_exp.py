"""Figure 14: training-to-accuracy, GPFS vs HVAC (vs static sharding).

The reproduction makes the paper's argument executable:

* GPFS and HVAC deliver the *same* shuffle sequences (HVAC's hashing is
  a lookup function, not a reordering), so an SGD learner fed by either
  produces bit-identical accuracy trajectories;
* a statically *sharded* loader (the technique the paper contrasts,
  where a node only ever sees its local shard) biases the stream and
  degrades final accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import format_table
from ..dl.accuracy import (
    AccuracyCurve,
    ClassificationTask,
    SGDTrainer,
    sharded_orders,
)
from ..simcore import RandomStreams

__all__ = ["AccuracyComparison", "accuracy_comparison"]


@dataclass
class AccuracyComparison:
    """Fig 14 data: curves for GPFS, HVAC, and a sharded loader."""

    gpfs: AccuracyCurve
    hvac: AccuracyCurve
    sharded: AccuracyCurve

    @property
    def identical_gpfs_hvac(self) -> bool:
        """The paper's claim, checked exactly."""
        return (
            self.gpfs.top1 == self.hvac.top1
            and self.gpfs.top5 == self.hvac.top5
        )

    def render(self) -> str:
        rows = []
        for label, curve in (
            ("GPFS", self.gpfs),
            ("HVAC", self.hvac),
            ("sharded", self.sharded),
        ):
            rows.append(
                [
                    label,
                    curve.final_top1(),
                    curve.final_top5(),
                    curve.iterations_to_top1(0.9 * self.gpfs.final_top1()) or -1,
                ]
            )
        return format_table(
            ["loader", "final top-1", "final top-5", "iters to 90% of GPFS top-1"],
            rows,
            title="Fig 14: ResNet50-surrogate accuracy by data-loading path",
        )


def _global_shuffle_orders(n_samples: int, n_epochs: int, seed: int) -> list[np.ndarray]:
    rand = RandomStreams(seed)
    return [
        rand.child(f"epoch{e}").shuffled("order", n_samples) for e in range(n_epochs)
    ]


def accuracy_comparison(
    n_epochs: int = 12,
    n_shards: int = 16,
    task: ClassificationTask | None = None,
    seed: int = 0,
    eval_every: int = 20,
) -> AccuracyComparison:
    """Train three identical learners that differ only in sample order."""
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    task = task or ClassificationTask(seed=seed)
    n = task.n_train

    # GPFS and HVAC both deliver the global shuffle: HVAC redirects the
    # *lookup*, not the order (same seed → same sequence).
    gpfs_orders = _global_shuffle_orders(n, n_epochs, seed)
    hvac_orders = _global_shuffle_orders(n, n_epochs, seed)
    shard_orders = sharded_orders(n, n_epochs, n_shards, seed=seed)

    results = []
    for orders in (gpfs_orders, hvac_orders, shard_orders):
        trainer = SGDTrainer(task)
        results.append(trainer.train(orders, eval_every=eval_every))
    return AccuracyComparison(gpfs=results[0], hvac=results[1], sharded=results[2])
