"""Unit + property tests for datasets, loaders and model specs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dl import (
    ALL_MODELS,
    COSMOFLOW,
    COSMOUNIVERSE,
    DEEPCAM_CLIMATE,
    IMAGENET21K,
    RESNET50,
    DatasetSpec,
    SyntheticDataset,
    make_epoch_plan,
)
from repro.dl.models import ITERATION_OVERHEAD


class TestDatasetSpecs:
    def test_imagenet21k_matches_paper(self):
        assert IMAGENET21K.n_train_files == 11_797_632
        assert IMAGENET21K.n_valid_files == 561_052
        # ≈1.1 TB stated total wants ≈163 KB averages
        total = IMAGENET21K.n_train_files * IMAGENET21K.mean_file_bytes
        assert total == pytest.approx(1.1e12, rel=0.8)

    def test_cosmouniverse_matches_paper(self):
        assert COSMOUNIVERSE.n_train_files == 524_288
        assert COSMOUNIVERSE.n_valid_files == 65_536
        total = COSMOUNIVERSE.n_train_files * COSMOUNIVERSE.mean_file_bytes
        assert total == pytest.approx(1.3e12, rel=0.05)

    def test_scaled_to(self):
        s = IMAGENET21K.scaled_to(1000)
        assert s.n_train_files == 1000
        assert s.mean_file_bytes == IMAGENET21K.mean_file_bytes
        assert s.n_valid_files >= 1

    def test_scaled_to_invalid(self):
        with pytest.raises(ValueError):
            IMAGENET21K.scaled_to(0)


class TestSyntheticDataset:
    def test_sizes_mean_close_to_spec(self):
        ds = SyntheticDataset(IMAGENET21K.scaled_to(50_000), seed=0)
        assert ds.sizes.mean() == pytest.approx(163_000, rel=0.05)

    def test_uniform_sizes_when_sigma_zero(self):
        spec = DatasetSpec("u", 100, 10, 5000.0, 0.0)
        ds = SyntheticDataset(spec)
        assert (ds.sizes == 5000).all()

    def test_paths_are_stable(self):
        a = SyntheticDataset(IMAGENET21K.scaled_to(10), seed=0)
        b = SyntheticDataset(IMAGENET21K.scaled_to(10), seed=0)
        assert a.paths() == b.paths()

    def test_path_index_bounds(self):
        ds = SyntheticDataset(IMAGENET21K.scaled_to(10))
        with pytest.raises(IndexError):
            ds.path(10)

    def test_scaled_factor(self):
        ds, factor = SyntheticDataset.scaled(IMAGENET21K, 1000)
        assert len(ds) == 1000
        assert factor == pytest.approx(11_797_632 / 1000)

    def test_epoch_order_is_permutation(self):
        ds = SyntheticDataset(IMAGENET21K.scaled_to(100))
        order = ds.epoch_order(0)
        assert sorted(order.tolist()) == list(range(100))

    def test_epoch_orders_differ_between_epochs(self):
        ds = SyntheticDataset(IMAGENET21K.scaled_to(200))
        assert not np.array_equal(ds.epoch_order(0), ds.epoch_order(1))

    def test_epoch_order_backend_independent(self):
        """Fig 14 invariant: the order depends only on seeds + epoch."""
        ds1 = SyntheticDataset(IMAGENET21K.scaled_to(100), seed=3)
        ds2 = SyntheticDataset(IMAGENET21K.scaled_to(100), seed=3)
        assert np.array_equal(ds1.epoch_order(5, seed=1), ds2.epoch_order(5, seed=1))

    def test_total_bytes(self):
        ds = SyntheticDataset(IMAGENET21K.scaled_to(100))
        assert ds.total_bytes == int(ds.sizes.sum())


class TestEpochPlan:
    def test_shards_cover_order_exactly(self):
        ds = SyntheticDataset(IMAGENET21K.scaled_to(103))
        plan = make_epoch_plan(ds, 0, n_ranks=4)
        combined = np.concatenate([s.indices for s in plan.shards])
        assert sorted(combined.tolist()) == sorted(plan.order.tolist())

    def test_drop_remainder_equalizes(self):
        ds = SyntheticDataset(IMAGENET21K.scaled_to(103))
        plan = make_epoch_plan(ds, 0, n_ranks=4, drop_remainder=True)
        lengths = {len(s) for s in plan.shards}
        assert lengths == {25}

    def test_invalid_args(self):
        ds = SyntheticDataset(IMAGENET21K.scaled_to(10))
        with pytest.raises(ValueError):
            make_epoch_plan(ds, 0, n_ranks=0)

    @given(
        n_files=st.integers(min_value=1, max_value=500),
        n_ranks=st.integers(min_value=1, max_value=64),
        epoch=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_sharding_partitions(self, n_files, n_ranks, epoch):
        """Shards are disjoint and cover the epoch order."""
        ds = SyntheticDataset(IMAGENET21K.scaled_to(n_files))
        plan = make_epoch_plan(ds, epoch, n_ranks=n_ranks)
        seen = np.concatenate([s.indices for s in plan.shards])
        assert len(seen) == n_files
        assert len(np.unique(seen)) == n_files


class TestModelSpecs:
    def test_resnet50_params_match_paper(self):
        assert RESNET50.n_parameters == 25_600_000

    def test_cosmoflow_params_match_paper(self):
        assert COSMOFLOW.n_parameters == 51_000

    def test_all_models_registry(self):
        assert set(ALL_MODELS) == {"resnet50", "tresnet_m", "cosmoflow", "deepcam"}

    def test_sample_seconds_amortizes_iteration_overhead(self):
        per_gpu = 1.0 / RESNET50.samples_per_sec_per_gpu
        assert RESNET50.sample_seconds(1) == per_gpu + ITERATION_OVERHEAD
        assert RESNET50.sample_seconds(80) - per_gpu == pytest.approx(
            (RESNET50.sample_seconds(40) - per_gpu) / 2
        )

    def test_sample_seconds_validation(self):
        with pytest.raises(ValueError):
            RESNET50.sample_seconds(0)

    def test_big_file_datasets_have_bigger_files(self):
        assert DEEPCAM_CLIMATE.mean_file_bytes > COSMOUNIVERSE.mean_file_bytes
        assert COSMOUNIVERSE.mean_file_bytes > IMAGENET21K.mean_file_bytes
