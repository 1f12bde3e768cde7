"""Training-to-accuracy analysis (paper §IV-F, Fig 14).

The paper's claim is behavioural, not numerical: HVAC's hash-based
lookup *does not perturb the shuffle order* the SGD algorithm sees, so
accuracy-vs-iteration trajectories under GPFS and HVAC are identical;
by contrast, static *sharding* (each node permanently owning a subset)
biases each worker's sample stream and hurts convergence.

To make that claim testable we train an actual model — multinomial
logistic regression on a synthetic Gaussian-blob classification task —
with minibatch SGD, feeding it samples in exactly the order the I/O
layer would deliver them.  The storage backend enters only through the
``order`` sequences, which is precisely the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..simcore import RandomStreams

__all__ = ["ClassificationTask", "SGDTrainer", "AccuracyCurve", "sharded_orders"]

#: SGD step size, minibatch size and initial-weight seed of every trainer
LEARNING_RATE = 0.15
BATCH_SIZE = 32
WEIGHT_SEED = 7


@dataclass
class ClassificationTask:
    """A seeded synthetic classification problem."""

    n_classes: int = 20
    n_features: int = 32
    n_train: int = 4000
    n_test: int = 1000
    class_spread: float = 1.3
    noise: float = 1.5
    seed: int = 0

    x_train: np.ndarray = field(init=False, repr=False)
    y_train: np.ndarray = field(init=False, repr=False)
    x_test: np.ndarray = field(init=False, repr=False)
    y_test: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rand = RandomStreams(self.seed)
        centers = rand.stream("centers").normal(
            0.0, self.class_spread, size=(self.n_classes, self.n_features)
        )
        gen = rand.stream("samples")
        y_all = gen.integers(self.n_classes, size=self.n_train + self.n_test)
        x_all = centers[y_all] + gen.normal(
            0.0, self.noise, size=(len(y_all), self.n_features)
        )
        self.x_train, self.x_test = x_all[: self.n_train], x_all[self.n_train :]
        self.y_train, self.y_test = y_all[: self.n_train], y_all[self.n_train :]


@dataclass
class AccuracyCurve:
    """Top-1/top-5 accuracy sampled along training iterations."""

    iterations: list[int] = field(default_factory=list)
    top1: list[float] = field(default_factory=list)
    top5: list[float] = field(default_factory=list)

    def iterations_to_top1(self, threshold: float) -> int | None:
        """First iteration reaching ``threshold`` top-1 accuracy."""
        for it, acc in zip(self.iterations, self.top1):
            if acc >= threshold:
                return it
        return None

    def final_top1(self) -> float:
        return self.top1[-1] if self.top1 else 0.0

    def final_top5(self) -> float:
        return self.top5[-1] if self.top5 else 0.0


class SGDTrainer:
    """Minibatch-SGD multinomial logistic regression (pure NumPy)."""

    def __init__(self, task: ClassificationTask):
        self.task = task
        rng = RandomStreams(WEIGHT_SEED).stream("weights")
        self.w = rng.normal(
            0.0, 0.01, size=(task.n_features + 1, task.n_classes)
        )

    # -- numerics ----------------------------------------------------------
    @staticmethod
    def _softmax(z: np.ndarray) -> np.ndarray:
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def _with_bias(self, x: np.ndarray) -> np.ndarray:
        return np.hstack([x, np.ones((len(x), 1))])

    def _step(self, idx: np.ndarray) -> None:
        x = self._with_bias(self.task.x_train[idx])
        y = self.task.y_train[idx]
        probs = self._softmax(x @ self.w)
        probs[np.arange(len(y)), y] -= 1.0
        grad = x.T @ probs / len(y)
        self.w -= LEARNING_RATE * grad

    def evaluate(self) -> tuple[float, float]:
        """(top-1, top-5) accuracy on the held-out test split."""
        scores = self._with_bias(self.task.x_test) @ self.w
        y = self.task.y_test
        top1 = float(np.mean(scores.argmax(axis=1) == y))
        k = min(5, self.task.n_classes)
        topk = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        top5 = float(np.mean((topk == y[:, None]).any(axis=1)))
        return top1, top5

    # -- training driven by an I/O-layer sample order ---------------------
    def train(
        self,
        epoch_orders: Iterable[np.ndarray],
        eval_every: int = 10,
    ) -> AccuracyCurve:
        """Run SGD with the given per-epoch sample orders.

        ``epoch_orders`` is what the data loader produced — identical
        for GPFS and HVAC, biased for a sharded deployment.
        """
        curve = AccuracyCurve()
        iteration = 0
        for order in epoch_orders:
            order = np.asarray(order)
            for start in range(0, len(order), BATCH_SIZE):
                self._step(order[start : start + BATCH_SIZE])
                iteration += 1
                if iteration % eval_every == 0:
                    top1, top5 = self.evaluate()
                    curve.iterations.append(iteration)
                    curve.top1.append(top1)
                    curve.top5.append(top5)
        top1, top5 = self.evaluate()
        curve.iterations.append(iteration)
        curve.top1.append(top1)
        curve.top5.append(top5)
        return curve


def sharded_orders(
    n_samples: int,
    n_epochs: int,
    n_shards: int,
    seed: int = 0,
) -> list[np.ndarray]:
    """Per-epoch orders under *static sharding* (the technique Fig 14
    warns about): the worker only ever sees its own fixed shard (shard
    0), reshuffled each epoch — same sample count per epoch, biased
    content."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    rand = RandomStreams(seed)
    base = rand.shuffled("shard-split", n_samples)
    shard = np.sort(base[::n_shards])
    orders = []
    for epoch in range(n_epochs):
        perm = rand.child(f"e{epoch}").shuffled("order", len(shard))
        full_epoch = np.concatenate(
            [shard[perm] for _ in range(max(1, n_samples // max(1, len(shard))))]
        )[:n_samples]
        orders.append(full_epoch)
    return orders
