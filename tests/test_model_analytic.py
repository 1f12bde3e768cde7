"""Tests for the closed-form analytic model, incl. DES cross-validation."""

import pytest

from repro.baselines import GPFSSetup, XFSSetup
from repro.cluster import SUMMIT
from repro.dl import (
    ALL_MODELS,
    COSMOUNIVERSE,
    DEEPCAM,
    DEEPCAM_CLIMATE,
    IMAGENET21K,
    RESNET50,
    SyntheticDataset,
    TrainingConfig,
    TrainingJob,
)
from repro.experiments import Scale, run_training
from repro.model import AnalyticModel
from repro.simcore import Environment


def model_at(n_nodes, model=RESNET50, dataset=IMAGENET21K, **kw):
    return AnalyticModel(SUMMIT, model, dataset, n_nodes, **kw)


class _Instant:
    """A backend whose reads take no simulated time."""

    def read_file(self, path, size, client_node):
        return size
        yield


def des_sample_seconds(model, batch_size):
    """What the DES charges for one sample: a one-rank, one-file epoch
    on reads that take no time lasts exactly one sample's compute."""
    dataset, _ = SyntheticDataset.scaled(IMAGENET21K, 1)
    config = TrainingConfig(
        model=model, dataset=dataset, n_nodes=1, procs_per_node=1,
        batch_size=batch_size, epochs=1,
    )
    job = TrainingJob(Environment(), config, lambda node: _Instant())
    return job.run().epoch_times[0]


@pytest.mark.parametrize("batch_size", [1, 0, 128])  # 0: the paper default
@pytest.mark.parametrize("name", sorted(ALL_MODELS))
def test_compute_cost_is_the_des_cost(name, batch_size):
    """Both models charge one per-sample compute cost, so a DES-vs-
    analytic gap can only sit in the I/O stages."""
    model = ALL_MODELS[name]
    analytic = AnalyticModel(
        SUMMIT, model, IMAGENET21K, 1, procs_per_node=1, batch_size=batch_size
    )
    assert analytic.compute_sec_per_file == des_sample_seconds(model, batch_size)


class TestCeilings:
    def test_gpfs_metadata_ceiling_small_files(self):
        ceiling, name = model_at(512).gpfs_ceiling()
        assert name == "metadata"
        # 32 MDS × 30k ops/s ÷ 3 ops/tx
        assert ceiling == pytest.approx(320_000, rel=0.01)

    def test_gpfs_bandwidth_ceiling_large_files(self):
        ceiling, name = model_at(512, DEEPCAM, DEEPCAM_CLIMATE).gpfs_ceiling()
        # 14.3 MB files: the binding limit is the data path — either raw
        # bandwidth or the per-request NSD service ceiling (overhead +
        # transfer), which sit within ~10% of each other at this size.
        assert name in ("pfs-bandwidth", "client-links", "nsd-requests")
        # 2.5 TB/s over 14.3 MB files
        assert ceiling < 320_000

    def test_xfs_scales_linearly(self):
        c64, _ = model_at(64).xfs_ceiling()
        c128, _ = model_at(128).xfs_ceiling()
        assert c128 == pytest.approx(2 * c64)

    def test_hvac_mover_binds_with_one_instance(self):
        m = model_at(64)
        c1, n1 = m.hvac_ceiling(1)
        c4, n4 = m.hvac_ceiling(4)
        assert c4 > c1  # more instances, more mover throughput

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalyticModel(SUMMIT, RESNET50, IMAGENET21K, 0)


class TestPredictions:
    def test_gpfs_flattens_at_scale(self):
        """Fig 8's saturation: epoch time stops improving with nodes."""
        e256 = model_at(256).predict_gpfs().epoch_seconds
        e1024 = model_at(1024).predict_gpfs().epoch_seconds
        assert e1024 > 0.8 * e256 / 4  # far from 4× speedup
        assert model_at(1024).predict_gpfs().bottleneck == "metadata"

    def test_xfs_scales_linearly_to_1024(self):
        e256 = model_at(256).predict_xfs().epoch_seconds
        e1024 = model_at(1024).predict_xfs().epoch_seconds
        assert e1024 == pytest.approx(e256 / 4, rel=0.05)

    def test_hvac_warm_beats_gpfs_at_scale(self):
        """The paper's ≈3× cached-epoch speedup at 512 nodes."""
        m = model_at(512)
        ratio = (
            m.predict_gpfs().epoch_seconds / m.predict_hvac(4).epoch_seconds
        )
        assert 2.0 < ratio < 5.0

    def test_cold_epoch_close_to_gpfs(self):
        """Fig 11: epoch-1 ≈ GPFS epoch for all variants."""
        m = model_at(512)
        gpfs = m.predict_gpfs().epoch_seconds
        cold = m.predict_hvac_cold(4).epoch_seconds
        assert cold == pytest.approx(gpfs, rel=0.35)

    def test_hvac_overhead_order(self):
        """Fig 9b ordering: 1×1 slowest, 4×1 closest to XFS."""
        m = model_at(128)
        xfs = m.predict_xfs().epoch_seconds
        e1 = m.predict_hvac(1).epoch_seconds
        e2 = m.predict_hvac(2).epoch_seconds
        e4 = m.predict_hvac(4).epoch_seconds
        assert e1 > e2 > e4 >= xfs * 0.999

    def test_mdtest_prediction_regimes(self):
        m = model_at(1024)
        small_gpfs = m.predict_mdtest("gpfs", 32 * 1024)
        large_gpfs = m.predict_mdtest("gpfs", 8 * 1024 * 1024)
        assert small_gpfs == pytest.approx(320_000, rel=0.01)  # metadata bound
        # 8 MB: bandwidth bound at 2.5 TB/s → ~300k would need 2.4 TB/s...
        assert large_gpfs == pytest.approx(2.51e12 / (8 * 1024 * 1024), rel=0.02)

    def test_mdtest_unknown_system(self):
        with pytest.raises(ValueError):
            model_at(1).predict_mdtest("nfs", 1024)


class TestCrossValidation:
    """The analytic model must track the DES where both run."""

    @pytest.mark.parametrize("n_nodes", [4, 16])
    def test_xfs_epoch_within_30pct_of_des(self, n_nodes):
        scale = Scale(files_per_rank=16, sim_batch_size=8, repetitions=1)
        des = run_training("xfs", RESNET50, IMAGENET21K, n_nodes, scale)
        analytic = AnalyticModel(
            SUMMIT, RESNET50, IMAGENET21K, n_nodes, procs_per_node=6
        ).predict_xfs()
        assert des.epoch_times[1] == pytest.approx(
            analytic.epoch_seconds, rel=0.30
        )

    def test_gpfs_epoch_within_30pct_of_des(self):
        scale = Scale(files_per_rank=16, sim_batch_size=8, repetitions=1)
        des = run_training("gpfs", RESNET50, IMAGENET21K, 16, scale)
        analytic = AnalyticModel(
            SUMMIT, RESNET50, IMAGENET21K, 16, procs_per_node=6
        ).predict_gpfs()
        assert des.epoch_times[1] == pytest.approx(
            analytic.epoch_seconds, rel=0.30
        )

    def test_hvac_epoch_within_35pct_of_des(self):
        scale = Scale(files_per_rank=16, sim_batch_size=8, repetitions=1)
        des = run_training("hvac4", RESNET50, IMAGENET21K, 16, scale)
        analytic = AnalyticModel(
            SUMMIT, RESNET50, IMAGENET21K, 16, procs_per_node=6
        ).predict_hvac(4)
        assert des.epoch_times[1] == pytest.approx(
            analytic.epoch_seconds, rel=0.35
        )
