"""Tests for the paper's two-concurrent-jobs-per-node methodology (§IV-B)."""

from dataclasses import replace

import pytest

from repro.cluster import SUMMIT
from repro.dl import IMAGENET21K, RESNET50
from repro.experiments import Scale, run_training

SCALE = Scale(files_per_rank=8, sim_batch_size=4, repetitions=1, procs_per_node=4)


class TestConcurrentJobs:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_training("xfs", RESNET50, IMAGENET21K, 2, SCALE,
                         concurrent_jobs=0)
        with pytest.raises(ValueError):
            run_training("xfs", RESNET50, IMAGENET21K, 2, SCALE,
                         concurrent_jobs=3)  # 4 procs don't split by 3

    def test_two_jobs_complete(self):
        res = run_training("hvac1", RESNET50, IMAGENET21K, 2, SCALE,
                           concurrent_jobs=2)
        assert len(res.epoch_times) == 2
        assert res.cache_hit_rate > 0

    def test_contention_slows_shared_storage(self):
        """Two jobs hammering GPFS run slower per job than one job with
        the same per-job rank count (the PFS is shared)."""
        spec = replace(
            SUMMIT,
            pfs=replace(SUMMIT.pfs, metadata_ops_per_sec=500.0, n_metadata_servers=2),
        )
        half = Scale(files_per_rank=8, sim_batch_size=4, repetitions=1,
                     procs_per_node=2)
        solo = run_training("gpfs", RESNET50, IMAGENET21K, 4, half, spec=spec)
        both = run_training("gpfs", RESNET50, IMAGENET21K, 4, SCALE, spec=spec,
                            concurrent_jobs=2)
        assert both.epoch_times[0] > solo.epoch_times[0]

    def test_xfs_isolates_jobs_better_than_gpfs(self):
        """Node-local storage scales with the node; the shared PFS
        doesn't — the contention penalty is smaller on XFS."""
        spec = replace(
            SUMMIT,
            pfs=replace(SUMMIT.pfs, metadata_ops_per_sec=500.0, n_metadata_servers=2),
        )
        half = Scale(files_per_rank=8, sim_batch_size=4, repetitions=1,
                     procs_per_node=2)

        def penalty(system):
            solo = run_training(system, RESNET50, IMAGENET21K, 4, half, spec=spec)
            both = run_training(system, RESNET50, IMAGENET21K, 4, SCALE,
                                spec=spec, concurrent_jobs=2)
            return both.epoch_times[1] / solo.epoch_times[1]

        assert penalty("gpfs") > penalty("xfs")

    def test_jobs_have_distinct_datasets(self):
        """Concurrent jobs must not share cache entries (distinct paths)."""
        res = run_training("hvac1", RESNET50, IMAGENET21K, 2, SCALE,
                           concurrent_jobs=2)
        # Hit rate ≈ warm/total epochs, not inflated by cross-job reuse.
        assert res.cache_hit_rate <= 0.55
