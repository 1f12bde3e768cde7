"""Integration tests for the distributed training simulation."""

from dataclasses import replace

import pytest

from repro.baselines import GPFSSetup, HVACSetup, XFSSetup
from repro.cluster import TESTING
from repro.dl import (
    IMAGENET21K,
    RESNET50,
    SyntheticDataset,
    TrainingConfig,
    TrainingJob,
    TrainingResult,
)
from repro.simcore import Environment


def run_job(setup, n_nodes=2, n_files=64, epochs=2, spec=TESTING, **cfg_kw):
    ds, factor = SyntheticDataset.scaled(IMAGENET21K.scaled_to(10_000), n_files)
    env = Environment()
    handle = setup.build(env, spec, n_nodes, ds)
    defaults = dict(
        model=RESNET50,
        dataset=ds,
        n_nodes=n_nodes,
        procs_per_node=2,
        batch_size=4,
        epochs=epochs,
        scale_factor=factor,
    )
    defaults.update(cfg_kw)
    config = TrainingConfig(**defaults)
    job = TrainingJob(env, config, handle.backend_for_node, handle.label)
    result = job.run()
    return result, handle


class TestTrainingConfig:
    def test_validation(self):
        ds, _ = SyntheticDataset.scaled(IMAGENET21K, 10)
        with pytest.raises(ValueError):
            TrainingConfig(model=RESNET50, dataset=ds, n_nodes=0)
        with pytest.raises(ValueError):
            TrainingConfig(model=RESNET50, dataset=ds, n_nodes=1, epochs=0)
        # A negative batch would zero the run (an empty range) or flip
        # the sign of the compute cost.
        with pytest.raises(ValueError):
            TrainingConfig(model=RESNET50, dataset=ds, n_nodes=1, batch_size=-4)
        with pytest.raises(ValueError):
            TrainingConfig(model=RESNET50, dataset=ds, n_nodes=1, sim_batch_size=-4)

    def test_effective_batch_default(self):
        ds, _ = SyntheticDataset.scaled(IMAGENET21K, 10)
        cfg = TrainingConfig(model=RESNET50, dataset=ds, n_nodes=1)
        assert cfg.effective_batch_size == RESNET50.default_batch_size

    def test_n_ranks(self):
        ds, _ = SyntheticDataset.scaled(IMAGENET21K, 10)
        cfg = TrainingConfig(model=RESNET50, dataset=ds, n_nodes=4, procs_per_node=6)
        assert cfg.n_ranks == 24


class TestTrainingResult:
    def make(self, times):
        r = TrainingResult(config_label="x", system_label="y")
        r.epoch_times = times
        return r

    def test_derived_views(self):
        r = self.make([10.0, 2.0, 3.0])
        assert r.first_epoch == 10.0
        assert r.best_random_epoch == 2.0
        assert r.avg_epoch == 5.0
        assert r.total_time == 15.0
        assert r.total_minutes == 0.25

    def test_extrapolate_exact_when_covered(self):
        r = self.make([10.0, 2.0])
        assert r.extrapolate_total(1) == 10.0
        assert r.extrapolate_total(2) == 12.0

    def test_extrapolate_beyond(self):
        r = self.make([10.0, 2.0])
        assert r.extrapolate_total(10) == pytest.approx(10.0 + 9 * 2.0)

    def test_extrapolate_validation(self):
        with pytest.raises(ValueError):
            self.make([1.0]).extrapolate_total(0)


class TestTrainingRuns:
    def test_epoch_count(self):
        res, _ = run_job(GPFSSetup(), epochs=3)
        assert len(res.epoch_times) == 3
        assert all(t > 0 for t in res.epoch_times)

    def test_scale_factor_multiplies_times(self):
        res1, _ = run_job(GPFSSetup(), epochs=1, scale_factor=1.0)
        res2, _ = run_job(GPFSSetup(), epochs=1, scale_factor=10.0)
        assert res2.epoch_times[0] == pytest.approx(10 * res1.epoch_times[0])

    def test_hvac_warm_epoch_faster_than_cold(self):
        res, handle = run_job(HVACSetup(1), epochs=3, io_only=True)
        assert res.epoch_times[1] < res.epoch_times[0]
        assert handle.deployment.hit_rate() > 0

    def test_hvac_caches_whole_dataset(self):
        res, handle = run_job(HVACSetup(1), n_files=64, epochs=1)
        # drop_remainder may skip a few tail files
        assert handle.deployment.total_cached_files >= 60

    def test_deterministic(self):
        r1, _ = run_job(GPFSSetup(), epochs=2)
        r2, _ = run_job(GPFSSetup(), epochs=2)
        assert r1.epoch_times == r2.epoch_times

    def test_io_only_faster_than_with_compute(self):
        r_io, _ = run_job(XFSSetup(), epochs=1, io_only=True)
        r_full, _ = run_job(XFSSetup(), epochs=1)
        assert r_io.epoch_times[0] < r_full.epoch_times[0]

    def test_sim_batch_size_preserves_totals_when_synchronous(self):
        """Loading is synchronous, so chunking must not change epoch time
        beyond second-order queueing effects: per-sample costs are
        identical, but burst length at the shared NVMe bandwidth server
        shifts waiting times slightly."""
        r_a, _ = run_job(XFSSetup(), epochs=1, batch_size=8, sim_batch_size=8)
        r_b, _ = run_job(XFSSetup(), epochs=1, batch_size=8, sim_batch_size=2)
        assert r_a.epoch_times[0] == pytest.approx(r_b.epoch_times[0], rel=0.05)

    def test_more_nodes_faster_epoch_when_unsaturated(self):
        r2, _ = run_job(XFSSetup(), n_nodes=2, n_files=128, epochs=1)
        r8, _ = run_job(XFSSetup(), n_nodes=8, n_files=128, epochs=1)
        assert r8.epoch_times[0] < r2.epoch_times[0]

    def test_gpfs_saturation_flattens_scaling(self):
        """Once the MDS ceiling binds, more nodes stop helping (Fig 8)."""
        spec = replace(
            TESTING,
            pfs=replace(TESTING.pfs, metadata_ops_per_sec=200.0, n_metadata_servers=1),
        )
        r2, _ = run_job(GPFSSetup(), n_nodes=2, n_files=128, epochs=1,
                        spec=spec, io_only=True)
        r8, _ = run_job(GPFSSetup(), n_nodes=8, n_files=128, epochs=1,
                        spec=spec, io_only=True)
        # 4× the nodes buys well under 4× the speed.
        assert r2.epoch_times[0] / r8.epoch_times[0] < 2.0

    def test_shuffle_seed_changes_order_not_magnitude(self):
        r_a, _ = run_job(XFSSetup(), epochs=1, shuffle_seed=0)
        r_b, _ = run_job(XFSSetup(), epochs=1, shuffle_seed=1)
        assert r_a.epoch_times[0] == pytest.approx(r_b.epoch_times[0], rel=0.05)
