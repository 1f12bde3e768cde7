"""Tests for system setups and the MDTest workload."""

import pytest

from repro.baselines import (
    SYSTEM_SETUPS,
    GPFSSetup,
    HVACSetup,
    XFSSetup,
)
from repro.cluster import SUMMIT, TESTING
from repro.dl import IMAGENET21K, SyntheticDataset
from repro.simcore import Environment
from repro.workloads import MDTestConfig, run_mdtest


def dataset(n=256):
    return SyntheticDataset.scaled(IMAGENET21K, n)[0]


class TestSetups:
    def test_registry_has_paper_lineup(self):
        assert set(SYSTEM_SETUPS) == {"gpfs", "hvac1", "hvac2", "hvac4", "xfs"}

    def test_labels(self):
        assert GPFSSetup().label == "GPFS"
        assert XFSSetup().label == "XFS-on-NVMe"
        assert HVACSetup(2).label == "HVAC(2x1)"

    def test_hvac_invalid_instances(self):
        with pytest.raises(ValueError):
            HVACSetup(0)

    def test_gpfs_backend_shared_across_nodes(self):
        env = Environment()
        h = GPFSSetup().build(env, TESTING, 4, dataset())
        assert h.backend_for_node(0) is h.backend_for_node(3)

    def test_xfs_backend_per_node(self):
        env = Environment()
        h = XFSSetup().build(env, TESTING, 4, dataset())
        assert h.backend_for_node(0) is not h.backend_for_node(1)

    def test_xfs_stage_time_positive(self):
        env = Environment()
        h = XFSSetup().build(env, SUMMIT, 4, dataset())
        assert h.stage_time > 0

    def test_hvac_deployment_attached(self):
        env = Environment()
        h = HVACSetup(2).build(env, TESTING, 4, dataset())
        assert h.deployment is not None
        assert h.deployment.n_servers == 8
        h.teardown()
        assert all(not s.alive for s in h.deployment.servers)


class TestMDTest:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MDTestConfig(n_nodes=0)
        with pytest.raises(ValueError):
            MDTestConfig(n_nodes=1, file_size=0)

    def test_single_pass_transaction_count(self):
        env = Environment()
        h = XFSSetup().build(env, TESTING, 2, dataset())
        cfg = MDTestConfig(n_nodes=2, ranks_per_node=3, file_size=1024, files_per_rank=5)
        res = run_mdtest(env, cfg, h.backend_for_node, h.label)
        assert res.transactions == 2 * 3 * 5
        assert res.tx_per_sec > 0

    def test_xfs_beats_gpfs_small_files(self):
        """The motivating gap of Figs 3."""
        rates = {}
        for name in ("gpfs", "xfs"):
            env = Environment()
            h = SYSTEM_SETUPS[name].build(env, SUMMIT, 4, dataset())
            cfg = MDTestConfig(n_nodes=4, ranks_per_node=6,
                               file_size=32 * 1024, files_per_rank=8)
            rates[name] = run_mdtest(env, cfg, h.backend_for_node, h.label).tx_per_sec
        assert rates["xfs"] > 2 * rates["gpfs"]

    def test_gpfs_saturates_with_nodes(self):
        """Fig 3's shape: GPFS tx/s stops scaling, XFS keeps going."""
        def rate(name, nodes):
            env = Environment()
            h = SYSTEM_SETUPS[name].build(env, SUMMIT, nodes, dataset())
            cfg = MDTestConfig(n_nodes=nodes, ranks_per_node=6,
                               file_size=32 * 1024, files_per_rank=6)
            return run_mdtest(env, cfg, h.backend_for_node, h.label).tx_per_sec

        gpfs_speedup = rate("gpfs", 128) / rate("gpfs", 8)
        xfs_speedup = rate("xfs", 128) / rate("xfs", 8)
        assert xfs_speedup > 14  # linear
        assert gpfs_speedup < xfs_speedup / 1.5  # saturating

    def test_bandwidth_property(self):
        env = Environment()
        h = XFSSetup().build(env, TESTING, 1, dataset())
        cfg = MDTestConfig(n_nodes=1, ranks_per_node=1, file_size=1000, files_per_rank=3)
        res = run_mdtest(env, cfg, h.backend_for_node, h.label)
        assert res.read_bandwidth == pytest.approx(res.tx_per_sec * 1000)
