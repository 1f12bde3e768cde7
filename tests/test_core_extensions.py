"""Tests for the paper's future-work extensions: prefetching & striping."""

import pytest

from repro.cluster import Allocation, TESTING
from repro.core import CachePrefetcher, HVACDeployment
from repro.simcore import AllOf, Environment
from repro.storage import GPFS


def build(n_nodes=4, instances=1, spec=None, **hvac):
    env = Environment()
    spec = (spec or TESTING).with_hvac(instances_per_node=instances, **hvac)
    alloc = Allocation(env, spec, n_nodes=n_nodes)
    pfs = GPFS(env, spec.pfs, n_nodes, spec.network.nic_bandwidth)
    dep = HVACDeployment(alloc, pfs)
    return env, dep, pfs


FILES = [(f"/data/f{i}", 30_000) for i in range(40)]


def read_epoch(env, dep, files, node_ids):
    def reader(node_id):
        cli = dep.client(node_id)
        for path, size in files:
            yield from cli.read_file(path, size, node_id)

    procs = [env.process(reader(n)) for n in node_ids]

    def wait():
        yield AllOf(env, procs)

    t0 = env.now
    env.run(env.process(wait()))
    return env.now - t0


class TestPrefetcher:
    def test_prefetch_populates_all_caches(self):
        env, dep, pfs = build()
        pre = CachePrefetcher(dep, [p for p, _ in FILES], [s for _, s in FILES])
        env.run(pre.start())
        assert pre.done
        assert dep.total_cached_files == len(FILES)
        assert dep.metrics.counter("prefetch.staged_files").value == len(FILES)
        assert dep.metrics.counter("prefetch.staged_bytes").value == sum(
            s for _, s in FILES
        )

    def test_prefetched_epoch_is_all_hits(self):
        env, dep, pfs = build()
        pre = CachePrefetcher(dep, [p for p, _ in FILES], [s for _, s in FILES])
        env.run(pre.start())
        misses_after_prefetch = dep.metrics.counter("hvac.cache_misses").value
        assert misses_after_prefetch == len(FILES)  # the prefetch fetches
        read_epoch(env, dep, FILES, [0, 1])
        # Demand traffic added zero misses: everything was pre-populated.
        assert dep.metrics.counter("hvac.cache_misses").value == misses_after_prefetch
        assert dep.metrics.counter("hvac.cache_hits").value == 2 * len(FILES)

    def test_prefetch_reduces_first_epoch_time(self):
        """The exact benefit the paper projects for epoch-1."""
        env1, dep1, _ = build()
        t_cold = read_epoch(env1, dep1, FILES, [0, 1, 2, 3])

        env2, dep2, _ = build()
        pre = CachePrefetcher(dep2, [p for p, _ in FILES], [s for _, s in FILES])
        env2.run(pre.start())
        t_warmed = read_epoch(env2, dep2, FILES, [0, 1, 2, 3])
        assert t_warmed < t_cold

    def test_prefetch_overlapping_demand_dedups(self):
        """Demand reads during an in-flight prefetch must not double-fetch."""
        env, dep, pfs = build()
        pre = CachePrefetcher(dep, [p for p, _ in FILES], [s for _, s in FILES])
        pre.start()
        read_epoch(env, dep, FILES, [0])  # runs concurrently with prefetch
        env.run()  # drain remaining prefetch work
        assert pfs.metrics.counter("gpfs.opens").value == len(FILES)

    def test_skips_already_cached(self):
        env, dep, _ = build()
        read_epoch(env, dep, FILES[:10], [0])
        pre = CachePrefetcher(dep, [p for p, _ in FILES], [s for _, s in FILES])
        env.run(pre.start())
        assert dep.metrics.counter("prefetch.staged_files").value == len(FILES) - 10

    def test_dead_server_is_skipped(self):
        env, dep, _ = build(n_nodes=2)
        dep.fail_node(1)
        pre = CachePrefetcher(dep, [p for p, _ in FILES], [s for _, s in FILES])
        env.run(pre.start())
        # Only node 0's share got prefetched; no crash.
        assert 0 < dep.total_cached_files < len(FILES)

    def test_validation(self):
        env, dep, _ = build()
        with pytest.raises(ValueError):
            CachePrefetcher(dep, ["/a"], [1, 2])
        pre = CachePrefetcher(dep, ["/a"], [1])
        pre.start()
        with pytest.raises(RuntimeError):
            pre.start()


class TestStriping:
    BIG = 3_000_000  # > threshold below

    def striped_spec(self):
        return dict(
            stripe_large_files=True,
            stripe_threshold=1_000_000,
            stripe_segment=500_000,
        )

    def test_segments_spread_across_servers(self):
        env, dep, _ = build(n_nodes=4, **self.striped_spec())
        read_epoch(env, dep, [("/d/huge", self.BIG)], [0])
        # 6 segments of 500 KB land on multiple servers.
        populated = [s for s in dep.servers if s.cache.n_files > 0]
        assert len(populated) >= 2
        assert sum(s.cache.n_files for s in dep.servers) == 6
        assert dep.total_cached_bytes == self.BIG

    def test_striped_second_read_hits(self):
        env, dep, _ = build(n_nodes=4, **self.striped_spec())
        read_epoch(env, dep, [("/d/huge", self.BIG)], [0])
        read_epoch(env, dep, [("/d/huge", self.BIG)], [0])
        assert dep.metrics.counter("hvac.client_hits").value == 1
        assert dep.metrics.counter("hvac.client_striped_reads").value == 2

    def test_small_files_not_striped(self):
        env, dep, _ = build(n_nodes=4, **self.striped_spec())
        read_epoch(env, dep, [("/d/small", 100_000)], [0])
        assert dep.metrics.counter("hvac.client_striped_reads").value == 0
        assert dep.total_cached_files == 1

    def test_striping_faster_for_large_files_warm(self):
        """Parallel segment reads beat one serial whole-file read."""
        def warm_read_time(**hvac):
            env, dep, _ = build(n_nodes=4, **hvac)
            read_epoch(env, dep, [("/d/huge", self.BIG)], [0])  # warm-up
            return read_epoch(env, dep, [("/d/huge", self.BIG)], [0])

        t_plain = warm_read_time()
        t_striped = warm_read_time(**self.striped_spec())
        assert t_striped < t_plain

    def test_striping_improves_byte_balance(self):
        """The §III-E motivation: skewed sizes balance at segment level."""
        sizes = [4_000_000, 100_000, 100_000, 100_000]
        files = [(f"/d/f{i}", s) for i, s in enumerate(sizes)]
        def byte_spread(**hvac):
            env, dep, _ = build(n_nodes=4, **hvac)
            read_epoch(env, dep, files, [0])
            loads = [s.cache.used_bytes for s in dep.servers]
            return max(loads) - min(loads)

        spread_plain = byte_spread()
        spread_striped = byte_spread(**self.striped_spec())
        assert spread_striped < spread_plain

    def test_spec_validation(self):
        from repro.cluster import HVACSpec

        with pytest.raises(ValueError):
            HVACSpec(stripe_segment=0)


class TestStripedReadSemantics:
    """Striped reads operate at whole-file granularity — the DL access
    pattern (§III-F: one read covering the file).  These tests pin that
    contract."""

    def build(self):
        return build(
            n_nodes=4,
            stripe_large_files=True,
            stripe_threshold=1_000_000,
            stripe_segment=500_000,
        )

    def test_partial_read_still_fetches_whole_file_segments(self):
        env, dep, _ = self.build()
        cli = dep.client(0)

        def proc():
            h = yield from cli.open("/d/huge", 3_000_000, 0)
            n = yield from cli.read(h, 1_000_000)  # partial request
            yield from cli.close(h)
            return n

        n = env.run(env.process(proc()))
        assert n == 1_000_000  # caller got what it asked for...
        # ...and the cache holds the full file's segments (6 × 500 KB),
        # like the prototype's whole-file fs::copy.
        assert dep.total_cached_bytes == 3_000_000

    def test_offset_tracking_across_partial_reads(self):
        env, dep, _ = self.build()
        cli = dep.client(0)

        def proc():
            h = yield from cli.open("/d/huge", 3_000_000, 0)
            n1 = yield from cli.read(h, 2_000_000)
            n2 = yield from cli.read(h, 2_000_000)  # clamped to EOF
            yield from cli.close(h)
            return n1, n2, h.offset

        n1, n2, offset = env.run(env.process(proc()))
        assert (n1, n2) == (2_000_000, 1_000_000)
        assert offset == 3_000_000

    def test_exact_threshold_not_striped(self):
        env, dep, _ = self.build()
        cli = dep.client(0)

        def proc():
            # size == threshold: whole-file path (strictly greater stripes)
            yield from cli.read_file("/d/edge", 1_000_000, 0)

        env.run(env.process(proc()))
        assert dep.metrics.counter("hvac.client_striped_reads").value == 0
        assert dep.total_cached_files == 1
