"""Tests for the Lustre personality + HVAC-over-Lustre generality."""

import pytest

from repro.cluster import Allocation, MiB, TESTING
from repro.core import HVACDeployment
from repro.simcore import Environment
from repro.storage import Lustre, LustreSpec


def make_lustre(env, n_nodes=4, **overrides):
    defaults = dict(
        n_mds=2,
        mds_ops_per_sec=100.0,  # 10 ms/op
        ops_per_open=2.0,
        ops_per_close=1.0,
        client_lock_cache=8,
        n_oss=2,
        osts_per_oss=2,
        ost_bandwidth=1e6,
        stripe_count=2,
        stripe_threshold=2 * MiB,
        stripe_size=1 * MiB,
        data_latency=0.001,
        client_overhead=0.0,
    )
    defaults.update(overrides)
    return Lustre(
        env, LustreSpec(**defaults), n_client_nodes=n_nodes,
        client_link_bandwidth=1e7,
    )


class TestLustreSpec:
    def test_default_bandwidth_matches_alpine_envelope(self):
        assert LustreSpec().aggregate_bandwidth == pytest.approx(2.5e12, rel=0.01)

    def test_n_osts(self):
        assert LustreSpec(n_oss=3, osts_per_oss=4).n_osts == 12

    def test_validation(self):
        # Each of these used to build and then fail inside a run.
        for kw in (
            dict(n_mds=0),
            dict(n_oss=0),
            dict(osts_per_oss=0),
            dict(stripe_count=0),
            dict(stripe_size=0),
            dict(mds_ops_per_sec=0),
            dict(ost_bandwidth=float("nan")),
            dict(data_latency=-1e-6),
            dict(client_lock_cache=-1),
        ):
            with pytest.raises(ValueError, match=next(iter(kw))):
                LustreSpec(**kw)


class TestLustreSemantics:
    def test_first_open_pays_mds(self):
        env = Environment()
        fs = make_lustre(env)

        def proc():
            yield from fs.open("/l/f", 100, client_node=0)

        env.run(env.process(proc()))
        assert env.now == pytest.approx(0.02)  # 2 ops × 10 ms
        assert fs.metrics.counter("lustre.lock_misses").value == 1

    def test_reopen_hits_client_lock_cache(self):
        """The ldlm behaviour GPFS's token model lacks."""
        env = Environment()
        fs = make_lustre(env)

        def proc():
            yield from fs.read_file("/l/f", 100, client_node=0)
            t0 = env.now
            h = yield from fs.open("/l/f", 100, client_node=0)
            yield from fs.close(h)
            return env.now - t0

        elapsed = env.run(env.process(proc()))
        assert fs.metrics.counter("lustre.lock_hits").value >= 1
        assert elapsed < 0.001  # no MDS round-trip

    def test_lock_cache_is_per_node(self):
        env = Environment()
        fs = make_lustre(env)

        def proc():
            yield from fs.read_file("/l/f", 100, client_node=0)
            yield from fs.read_file("/l/f", 100, client_node=1)

        env.run(env.process(proc()))
        # Node 1's open missed despite node 0 holding the lock.
        assert fs.metrics.counter("lustre.lock_misses").value == 2

    def test_lock_cache_lru_eviction(self):
        """DL's huge shuffled namespaces defeat the lock cache."""
        env = Environment()
        fs = make_lustre(env)  # cache of 8 entries

        def proc():
            for i in range(16):
                yield from fs.read_file(f"/l/f{i}", 100, client_node=0)
            # Re-read the first file: its lock was evicted.
            yield from fs.read_file("/l/f0", 100, client_node=0)

        env.run(env.process(proc()))
        assert fs.lock_cache_size(0) == 8
        assert fs.metrics.counter("lustre.lock_misses").value == 17

    def test_small_file_single_stripe(self):
        env = Environment()
        fs = make_lustre(env)
        assert fs.layout_of(100_000) == (1, 100_000)

    def test_large_file_striped(self):
        env = Environment()
        fs = make_lustre(env)
        count, size = fs.layout_of(4 * MiB)
        assert count == 2
        assert size == 1 * MiB

    def test_large_read_parallel_on_osts(self):
        env = Environment()
        fs = make_lustre(env)

        def proc():
            yield from fs.read_file("/l/big", 4 * MiB, client_node=0)

        env.run(env.process(proc()))
        # 4 MiB over parallel OSTs at 1e6 B/s each — far below serial 4.2 s.
        assert env.now < 3.0

    def test_double_close_rejected(self):
        env = Environment()
        fs = make_lustre(env)

        def proc():
            h = yield from fs.open("/l/f", 10, client_node=0)
            yield from fs.close(h)
            yield from fs.close(h)

        with pytest.raises(ValueError):
            env.run(env.process(proc()))

    def test_read_past_eof(self):
        env = Environment()
        fs = make_lustre(env)

        def proc():
            h = yield from fs.open("/l/f", 50, client_node=0)
            n1 = yield from fs.read(h, 100)
            n2 = yield from fs.read(h, 100)
            yield from fs.close(h)
            return n1, n2

        assert env.run(env.process(proc())) == (50, 0)


class TestHVACOverLustre:
    """The paper's generality claim: HVAC needs no changes per PFS."""

    def build(self, n_nodes=4):
        env = Environment()
        alloc = Allocation(env, TESTING, n_nodes=n_nodes)
        pfs = make_lustre(env, n_nodes=n_nodes, client_lock_cache=64_000)
        dep = HVACDeployment(alloc, pfs)
        return env, dep, pfs

    def read_all(self, env, dep, files, nodes):
        def reader(node):
            cli = dep.client(node)
            for path, size in files:
                yield from cli.read_file(path, size, node)

        from repro.simcore import AllOf

        procs = [env.process(reader(n)) for n in nodes]

        def wait():
            yield AllOf(env, procs)

        env.run(env.process(wait()))

    FILES = [(f"/l/f{i}", 20_000) for i in range(20)]

    def test_cold_epoch_fetches_from_lustre(self):
        env, dep, pfs = self.build()
        self.read_all(env, dep, self.FILES, [0, 1])
        assert pfs.metrics.counter("lustre.opens").value == len(self.FILES)
        assert dep.total_cached_files == len(self.FILES)

    def test_warm_epoch_bypasses_lustre(self):
        env, dep, pfs = self.build()
        self.read_all(env, dep, self.FILES, [0, 1])
        opens = pfs.metrics.counter("lustre.opens").value
        self.read_all(env, dep, self.FILES, [0, 1])
        assert pfs.metrics.counter("lustre.opens").value == opens

    def test_failover_to_lustre_works(self):
        env, dep, pfs = self.build()
        self.read_all(env, dep, self.FILES, [0])
        dep.fail_node(1)
        self.read_all(env, dep, self.FILES, [0])
        assert dep.metrics.counter("hvac.client_pfs_fallback").value > 0
