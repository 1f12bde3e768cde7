"""Tests for trace replay and the event-driven XFS stage-in."""

import pytest

from repro.baselines import XFSSetup
from repro.cluster import Allocation, SUMMIT, TESTING
from repro.core import HVACDeployment
from repro.dl import IMAGENET21K, SyntheticDataset
from repro.posix import TracingBackend, replay_trace
from repro.simcore import Environment
from repro.storage import GPFS


def record_trace(n_files=20, think=0.001):
    """Record a loader trace against GPFS, with think time between files."""
    env = Environment()
    pfs = GPFS(env, TESTING.pfs, 2, TESTING.network.nic_bandwidth)
    traced = TracingBackend(env, pfs)

    def loader():
        for i in range(n_files):
            yield from traced.read_file(f"/d/f{i}", 10_000, 0)
            yield env.timeout(think)

    env.run(env.process(loader()))
    return traced.log


class TestReplay:
    def test_replay_reproduces_transaction_count(self):
        log = record_trace()
        env = Environment()
        pfs = GPFS(env, TESTING.pfs, 2, TESTING.network.nic_bandwidth)
        res = replay_trace(env, log, pfs, system_label="GPFS")
        assert res.n_transactions == 20
        assert res.elapsed > 0
        assert res.io_time > 0

    def test_think_time_preserved(self):
        log = record_trace(think=0.01)
        env = Environment()
        pfs = GPFS(env, TESTING.pfs, 2, TESTING.network.nic_bandwidth)
        res = replay_trace(env, log, pfs)
        # 19 gaps of ~10 ms each
        assert res.think_time == pytest.approx(19 * 0.01, rel=0.2)

    def test_think_time_can_be_dropped(self):
        log = record_trace(think=0.01)
        env = Environment()
        pfs = GPFS(env, TESTING.pfs, 2, TESTING.network.nic_bandwidth)
        res = replay_trace(env, log, pfs, preserve_think_time=False)
        assert res.think_time == 0.0

    def test_what_if_hvac_beats_gpfs_on_rereads(self):
        """The intended use: replay one trace against two systems."""
        # A trace with re-reads (two passes over the same files).
        env = Environment()
        pfs = GPFS(env, TESTING.pfs, 2, TESTING.network.nic_bandwidth)
        traced = TracingBackend(env, pfs)

        def loader():
            for _ in range(2):
                for i in range(15):
                    yield from traced.read_file(f"/d/f{i}", 20_000, 0)

        env.run(env.process(loader()))
        log = traced.log

        env_g = Environment()
        gpfs = GPFS(env_g, TESTING.pfs, 2, TESTING.network.nic_bandwidth)
        res_gpfs = replay_trace(env_g, log, gpfs, system_label="GPFS")

        env_h = Environment()
        alloc = Allocation(env_h, TESTING, 2)
        pfs_h = GPFS(env_h, TESTING.pfs, 2, TESTING.network.nic_bandwidth)
        dep = HVACDeployment(alloc, pfs_h)
        res_hvac = replay_trace(env_h, log, dep.client(0), system_label="HVAC")

        assert res_hvac.io_time < res_gpfs.io_time
        assert res_hvac.n_transactions == res_gpfs.n_transactions

    def test_mean_latency(self):
        log = record_trace(n_files=10)
        env = Environment()
        pfs = GPFS(env, TESTING.pfs, 2, TESTING.network.nic_bandwidth)
        res = replay_trace(env, log, pfs)
        assert res.n_transactions == 10
        # each open-read-close pays at least the PFS's observed data latency
        assert res.io_time / res.n_transactions >= TESTING.pfs.data_latency


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
