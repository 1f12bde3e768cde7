"""Tests for the I/O tracer (§III-F profiling) and the IOR workload."""

import pytest

from repro.baselines import GPFSSetup, XFSSetup
from repro.cluster import SUMMIT, TESTING, GB
from repro.dl import IMAGENET21K, SyntheticDataset
from repro.posix import TraceLog, TracingBackend
from repro.simcore import Environment
from repro.storage import GPFS
from repro.workloads import IORConfig, run_ior


def make_traced(env, n_nodes=2):
    pfs = GPFS(env, TESTING.pfs, n_nodes, TESTING.network.nic_bandwidth)
    return TracingBackend(env, pfs), pfs


class TestTracingBackend:
    def test_records_every_call(self):
        env = Environment()
        traced, _ = make_traced(env)

        def proc():
            for i in range(3):
                yield from traced.read_file(f"/d/f{i}", 1000, 0)

        env.run(env.process(proc()))
        log = traced.log
        assert len(log.ops("open")) == 3
        assert len(log.ops("read")) == 3
        assert len(log.ops("close")) == 3
        assert log.total_bytes == 3000

    def test_latencies_positive_and_ordered(self):
        env = Environment()
        traced, _ = make_traced(env)

        def proc():
            yield from traced.read_file("/d/f", 1000, 0)

        env.run(env.process(proc()))
        for record in traced.log.records:
            assert record.duration >= 0
        starts = [r.start for r in traced.log.records]
        assert starts == sorted(starts)

    def test_wrapped_backend_still_does_real_io(self):
        env = Environment()
        traced, pfs = make_traced(env)

        def proc():
            yield from traced.read_file("/d/f", 1000, 0)

        env.run(env.process(proc()))
        assert pfs.metrics.counter("gpfs.opens").value == 1
        assert env.now > 0

    def test_whole_file_pattern_detected(self):
        """The §III-F profile: open, one read, close per file."""
        env = Environment()
        traced, _ = make_traced(env)

        def dl_loader():
            for i in range(5):
                yield from traced.read_file(f"/d/f{i}", 16_000_000, 0)

        env.run(env.process(dl_loader()))
        assert traced.log.is_whole_file_single_read_pattern()

    def test_multi_read_pattern_not_whole_file(self):
        env = Environment()
        traced, _ = make_traced(env)

        def chunked_reader():
            h = yield from traced.open("/d/f", 1000, 0)
            yield from traced.read(h, 500)
            yield from traced.read(h, 500)
            yield from traced.close(h)

        env.run(env.process(chunked_reader()))
        assert not traced.log.is_whole_file_single_read_pattern()

    def test_summary_shape(self):
        env = Environment()
        traced, _ = make_traced(env)

        def proc():
            yield from traced.read_file("/d/f", 1000, 0)

        env.run(env.process(proc()))
        s = traced.log.summary()
        assert s["open"]["count"] == 1
        assert s["read"]["mean_latency"] > 0
        assert s["total_bytes"] == 1000

    def test_empty_log_summary(self):
        s = TraceLog().summary()
        assert s["open"]["count"] == 0
        assert s["total_bytes"] == 0

    def test_partial_read_offsets_track(self):
        env = Environment()
        traced, _ = make_traced(env)
        got = []

        def proc():
            h = yield from traced.open("/d/f", 100, 0)
            n1 = yield from traced.read(h, 60)
            n2 = yield from traced.read(h, 60)
            got.append((n1, n2))
            yield from traced.close(h)
            return h.closed

        closed = env.run(env.process(proc()))
        assert got == [(60, 40)]
        assert closed


class TestIOR:
    def dataset(self):
        return SyntheticDataset.scaled(IMAGENET21K, 64)[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IORConfig(n_nodes=0)
        with pytest.raises(ValueError):
            IORConfig(n_nodes=1, block_size=0)
        with pytest.raises(ValueError):
            IORConfig(n_nodes=1, file_size=10, block_size=20)

    def test_xfs_per_node_bandwidth_matches_rated(self):
        """IOR on local NVMe must deliver ≈5.5 GB/s per node."""
        env = Environment()
        h = XFSSetup().build(env, SUMMIT, 2, self.dataset())
        cfg = IORConfig(n_nodes=2, ranks_per_node=4,
                        file_size=256 * 1024**2, block_size=16 * 1024**2)
        res = run_ior(env, cfg, h.backend_for_node, h.label)
        assert res.aggregate_bandwidth / cfg.n_nodes == pytest.approx(5.5e9, rel=0.1)

    def test_gpfs_single_node_limited_by_client_link(self):
        env = Environment()
        h = GPFSSetup().build(env, SUMMIT, 1, self.dataset())
        cfg = IORConfig(n_nodes=1, ranks_per_node=6,
                        file_size=256 * 1024**2, block_size=16 * 1024**2)
        res = run_ior(env, cfg, h.backend_for_node, h.label)
        # One node can't exceed its ~12.5 GB/s storage link.
        assert res.aggregate_bandwidth <= 12.5e9 * 1.05
        assert res.aggregate_bandwidth > 6e9

    def test_gpfs_scales_until_aggregate_limit(self):
        env = Environment()
        h = GPFSSetup().build(env, SUMMIT, 8, self.dataset())
        cfg = IORConfig(n_nodes=8, ranks_per_node=4,
                        file_size=64 * 1024**2, block_size=16 * 1024**2)
        res = run_ior(env, cfg, h.backend_for_node, h.label)
        assert res.aggregate_bandwidth > 4 * 12.5e9 * 0.5
        assert res.aggregate_bandwidth < 2.6e12

    def test_total_bytes_accounting(self):
        cfg = IORConfig(n_nodes=2, ranks_per_node=3, file_size=GB)
        assert cfg.total_bytes == 6 * GB
