"""Unit tests for GPFS and LocalFS storage backends."""

import pytest

from repro.cluster import MiB, NVMeDevice, NVMeSpec, PFSSpec
from repro.simcore import Environment
from repro.storage import GPFS, LocalFS
from repro.storage import gpfs as gpfs_module


def make_gpfs(env, **overrides):
    defaults = dict(
        n_metadata_servers=2,
        metadata_ops_per_sec=100.0,  # op = 10 ms
        ops_per_open=2.0,
        ops_per_close=1.0,
        n_data_servers=4,
        data_server_bandwidth=1e6,
        stripe_size=1 * MiB,
        data_latency=0.001,
        client_overhead=0.0,
    )
    defaults.update(overrides)
    return GPFS(
        env,
        PFSSpec(**defaults),
        n_client_nodes=4,
        client_link_bandwidth=1e7,
    )


class TestGPFS:
    def test_open_costs_metadata_ops(self):
        env = Environment()
        fs = make_gpfs(env)

        def proc():
            yield from fs.open("/data/f1", 100, client_node=0)

        env.process(proc())
        env.run()
        assert env.now == pytest.approx(0.02)  # 2 ops × 10 ms

    def test_full_transaction(self):
        env = Environment()
        fs = make_gpfs(env)
        done = []

        def proc():
            n = yield from fs.read_file("/data/f1", 1000, client_node=0)
            done.append((env.now, n))

        env.process(proc())
        env.run()
        t, n = done[0]
        assert n == 1000
        # open 20ms + read (1ms latency + 1ms transfer) + close 10ms
        assert t == pytest.approx(0.032, rel=0.05)

    def test_metadata_saturation(self):
        """Many concurrent opens are limited by aggregate MDS ops/s."""
        env = Environment()
        fs = make_gpfs(env)
        n_files = 40

        def opener(i):
            yield from fs.open(f"/d/file-{i}", 10, client_node=0)

        for i in range(n_files):
            env.process(opener(i))
        env.run()
        # 40 opens × 2 ops = 80 ops over 2 MDS at 100 ops/s ≈ 0.4 s
        # (hash imbalance makes it a bit worse, never better)
        assert env.now >= 0.4 - 1e-9
        assert env.now < 0.8

    def test_large_read_striped_across_servers(self):
        env = Environment()
        fs = make_gpfs(env)

        def proc():
            yield from fs.read_file("/d/big", 4 * MiB, client_node=0)

        env.process(proc())
        env.run()
        # 4 stripes of 1 MiB on (up to) 4 servers in parallel at 1e6 B/s
        # ≈ 1.05 s each; client link is 10× faster so not binding.
        # Plus 30 ms metadata.  Far less than serial (4.2 s).
        assert env.now < 2.5

    def test_client_link_binds_single_client(self):
        env = Environment()
        fs = make_gpfs(env, data_server_bandwidth=1e9)  # NSDs now very fast

        def proc():
            yield from fs.read_file("/d/big", 10_000_000, client_node=0)

        env.process(proc())
        env.run()
        # 10 MB over the 1e7 B/s client link ≈ 1 s dominates.
        assert env.now == pytest.approx(1.03, rel=0.05)

    def test_mds_partitioning_is_stable(self):
        env = Environment()
        fs = make_gpfs(env)
        assert fs.mds_for("/a/b") == fs.mds_for("/a/b")

    def test_stripes_of(self, monkeypatch):
        """A whole-file read fetches one slice per stripe it covers."""
        served = []
        serve = gpfs_module._DataServer.serve

        def spy(server, nbytes):
            served.append(nbytes)
            return serve(server, nbytes)

        monkeypatch.setattr(gpfs_module._DataServer, "serve", spy)
        env = Environment()
        fs = make_gpfs(env)
        slices = {}
        for size in (1, 1 * MiB, 1 * MiB + 1, 10 * MiB):
            served.clear()
            env.run(env.process(fs.read_file(f"/d/{size}", size, client_node=0)))
            slices[size] = list(served)
        assert slices == {
            1: [1],
            1 * MiB: [MiB],
            1 * MiB + 1: [MiB, 1],
            10 * MiB: [MiB] * 10,
        }

    def test_double_close_rejected(self):
        env = Environment()
        fs = make_gpfs(env)

        def proc():
            h = yield from fs.open("/d/f", 10, client_node=0)
            yield from fs.close(h)
            yield from fs.close(h)

        env.process(proc())
        with pytest.raises(ValueError):
            env.run()

    def test_read_past_eof_returns_zero(self):
        env = Environment()
        fs = make_gpfs(env)
        got = []

        def proc():
            h = yield from fs.open("/d/f", 100, client_node=0)
            n1 = yield from fs.read(h, 100)
            n2 = yield from fs.read(h, 100)
            got.append((n1, n2))

        env.process(proc())
        env.run()
        assert got == [(100, 0)]

    def test_metrics_count_transactions(self):
        env = Environment()
        fs = make_gpfs(env)

        def proc():
            yield from fs.read_file("/d/f", 10, client_node=0)

        env.process(proc())
        env.run()
        assert fs.metrics.counter("gpfs.opens").value == 1
        assert fs.metrics.counter("gpfs.closes").value == 1


def make_localfs(env, node_id=0):
    spec = NVMeSpec(
        capacity_bytes=10_000,
        read_bandwidth=1000.0,
        write_bandwidth=500.0,
        read_latency=0.01,
        write_latency=0.01,
        queue_depth=4,
        fs_open_close_latency=0.005,
    )
    dev = NVMeDevice(env, spec)
    return LocalFS(env, node_id, dev)


class TestLocalFS:
    def test_write_then_read(self):
        env = Environment()
        fs = make_localfs(env)
        got = []

        def proc():
            n = yield from fs.read_file("/nvme/f", 1000, client_node=0)
            got.append(n)

        env.process(proc())
        env.run()
        assert got == [1000]

    def test_cross_node_access_rejected(self):
        env = Environment()
        fs = make_localfs(env, node_id=0)

        def proc():
            yield from fs.open("/f", 10, client_node=1)

        env.process(proc())
        with pytest.raises(ValueError):
            env.run()

    def test_transaction_timing(self):
        env = Environment()
        fs = make_localfs(env)

        def proc():
            t0 = env.now
            yield from fs.read_file("/f", 1000, client_node=0)
            return env.now - t0

        p = env.process(proc())
        elapsed = env.run(p)
        # open_close 5ms + read latency 10ms + 1000/1000 = 1s
        assert elapsed == pytest.approx(1.015, rel=0.01)

    def test_read_faster_than_gpfs_small_files(self):
        """The motivating gap: local open is µs-scale, PFS open is ms-scale."""
        env1 = Environment()
        lfs = make_localfs(env1)

        def local():
            t0 = env1.now
            for _ in range(10):
                yield from lfs.read_file("/f", 10, client_node=0)
            return env1.now - t0

        t_local = env1.run(env1.process(local()))

        env2 = Environment()
        gfs = make_gpfs(env2)

        def remote():
            t0 = env2.now
            for _ in range(10):
                yield from gfs.read_file("/f", 10, client_node=0)
            return env2.now - t0

        t_gpfs = env2.run(env2.process(remote()))
        assert t_gpfs > t_local


class TestGPFSStripeProtocol:
    def test_offset_read_touches_only_covering_stripes(self):
        """A read at an interior offset must not refetch earlier stripes."""
        env = Environment()
        fs = make_gpfs(env, data_latency=0.0, data_server_bandwidth=1e6)
        elapsed = {}

        def proc():
            h = yield from fs.open("/d/big", 4 * MiB, client_node=0)
            # skip to the last stripe
            h.offset = 3 * MiB
            t0 = env.now
            n = yield from fs.read(h, MiB)
            elapsed["one_stripe"] = env.now - t0
            yield from fs.close(h)
            return n

        n = env.run(env.process(proc()))
        assert n == MiB
        # one 1 MiB stripe at 1e6 B/s ≈ 1.05 s, not 4 stripes' worth
        assert elapsed["one_stripe"] < 2.0

    def test_read_spanning_stripe_boundary(self):
        env = Environment()
        fs = make_gpfs(env)
        got = []

        def proc():
            h = yield from fs.open("/d/big", 4 * MiB, client_node=0)
            h.offset = MiB - 1000
            n = yield from fs.read(h, 2000)  # crosses stripe 0 → 1
            got.append((n, h.offset))
            yield from fs.close(h)

        env.run(env.process(proc()))
        assert got == [(2000, MiB + 1000)]

    def test_stripe_placement_round_robins(self):
        env = Environment()
        fs = make_gpfs(env)
        servers = {fs.nsd_for("/d/big", i) for i in range(4)}
        assert len(servers) == 4  # 4 stripes on 4 distinct NSDs

    def test_zero_byte_read(self):
        env = Environment()
        fs = make_gpfs(env)

        def proc():
            h = yield from fs.open("/d/f", 100, client_node=0)
            n = yield from fs.read(h, 0)
            yield from fs.close(h)
            return n

        assert env.run(env.process(proc())) == 0
