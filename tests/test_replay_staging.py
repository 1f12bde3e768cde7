"""Tests for the event-driven XFS stage-in."""

from repro.baselines import XFSSetup
from repro.cluster import SUMMIT
from repro.dl import IMAGENET21K, SyntheticDataset
from repro.simcore import Environment


class TestEventDrivenStaging:
    def test_instant_stage_has_no_runner(self):
        env = Environment()
        ds, _ = SyntheticDataset.scaled(IMAGENET21K, 32)
        h = XFSSetup().build(env, SUMMIT, 2, ds)
        assert h.run_stage is None
        assert h.stage_time > 0  # analytic estimate

    def test_simulated_stage_runs_and_times(self):
        env = Environment()
        ds, _ = SyntheticDataset.scaled(IMAGENET21K, 32)
        h = XFSSetup(instant_stage=False).build(env, SUMMIT, 2, ds)
        assert h.run_stage is not None
        elapsed = h.run_stage()
        assert elapsed > 0
        assert h.stage_time == elapsed
        # Both nodes hold the full dataset's bytes on their NVMe.
        for node_id in (0, 1):
            dev = h.backend_for_node(node_id).device
            assert dev.metrics is not None

    def test_simulated_stage_close_to_analytic_estimate(self):
        """The analytic bound and the DES agree within 2× at small scale
        (the DES includes metadata and per-request latencies the bound
        ignores)."""
        env = Environment()
        ds, _ = SyntheticDataset.scaled(IMAGENET21K, 64)
        h_est = XFSSetup().build(env, SUMMIT, 2, ds)
        env2 = Environment()
        h_sim = XFSSetup(instant_stage=False).build(env2, SUMMIT, 2, ds)
        simulated = h_sim.run_stage()
        assert simulated >= h_est.stage_time * 0.5
