"""Tests for the SGD accuracy surrogate (Fig 14 machinery)."""

import numpy as np
import pytest

from repro.dl import ClassificationTask, SGDTrainer, sharded_orders
from repro.experiments.accuracy_exp import accuracy_comparison
from repro.simcore import RandomStreams


def small_task(seed=0):
    return ClassificationTask(
        n_classes=12,
        n_features=12,
        n_train=600,
        n_test=400,
        class_spread=1.1,
        noise=1.5,
        seed=seed,
    )


def orders_for(task, n_epochs, seed=0):
    rand = RandomStreams(seed)
    return [
        rand.child(f"e{e}").shuffled("o", task.n_train) for e in range(n_epochs)
    ]


class TestClassificationTask:
    def test_shapes(self):
        t = small_task()
        assert t.x_train.shape == (600, 12)
        assert t.y_train.shape == (600,)
        assert t.x_test.shape == (400, 12)

    def test_seeded_reproducibility(self):
        a, b = small_task(3), small_task(3)
        assert np.array_equal(a.x_train, b.x_train)

    def test_labels_in_range(self):
        t = small_task()
        assert t.y_train.min() >= 0
        assert t.y_train.max() < 12


class TestSGDTrainer:
    def test_training_improves_accuracy(self):
        task = small_task()
        trainer = SGDTrainer(task)
        before, _ = trainer.evaluate()
        curve = trainer.train(orders_for(task, 8))
        assert curve.final_top1() > before + 0.3

    def test_top5_at_least_top1(self):
        task = small_task()
        curve = SGDTrainer(task).train(orders_for(task, 4))
        assert all(t5 >= t1 for t1, t5 in zip(curve.top1, curve.top5))

    def test_same_orders_same_curve(self):
        """Determinism underpinning the GPFS == HVAC claim."""
        task = small_task()
        c1 = SGDTrainer(task).train(orders_for(task, 5))
        c2 = SGDTrainer(task).train(orders_for(task, 5))
        assert c1.top1 == c2.top1
        assert c1.top5 == c2.top5

    def test_different_orders_different_trajectory_same_convergence(self):
        task = small_task()
        c1 = SGDTrainer(task).train(orders_for(task, 8, seed=0))
        c2 = SGDTrainer(task).train(orders_for(task, 8, seed=99))
        assert c1.top1 != c2.top1  # trajectories differ...
        assert abs(c1.final_top1() - c2.final_top1()) < 0.05  # ...endpoints agree

    def test_iterations_to_top1(self):
        task = small_task()
        curve = SGDTrainer(task).train(orders_for(task, 8))
        thresh = 0.9 * curve.final_top1()
        it = curve.iterations_to_top1(thresh)
        assert it is not None and it > 0
        assert curve.iterations_to_top1(2.0) is None  # unreachable


class TestShardedOrders:
    def test_only_visible_shard_sampled(self):
        orders = sharded_orders(100, 3, n_shards=4)
        rand = RandomStreams(0)
        base = rand.shuffled("shard-split", 100)
        shard = set(base[0::4].tolist())
        for order in orders:
            assert set(order.tolist()) <= shard

    def test_epoch_length_preserved(self):
        orders = sharded_orders(100, 2, n_shards=4)
        assert all(len(o) == 100 for o in orders)

    def test_invalid_shard(self):
        with pytest.raises(ValueError):
            sharded_orders(10, 1, n_shards=0)


class TestFig14Experiment:
    def test_gpfs_hvac_identical(self):
        cmp = accuracy_comparison(
            n_epochs=6, n_shards=8, task=small_task(), eval_every=25
        )
        assert cmp.identical_gpfs_hvac

    def test_sharding_hurts_accuracy(self):
        cmp = accuracy_comparison(
            n_epochs=6, n_shards=8, task=small_task(), eval_every=25
        )
        assert cmp.sharded.final_top1() < cmp.gpfs.final_top1() - 0.02

    def test_render_contains_rows(self):
        cmp = accuracy_comparison(
            n_epochs=3, n_shards=8, task=small_task(), eval_every=50
        )
        text = cmp.render()
        for label in ("GPFS", "HVAC", "sharded"):
            assert label in text
