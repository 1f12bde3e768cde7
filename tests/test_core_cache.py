"""Unit + property tests for the cache manager and eviction policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NVMeDevice, NVMeSpec
from repro.core import CacheManager, make_policy
from repro.core.cache import (
    FIFOEviction,
    LRUEviction,
    MinIOEviction,
    RandomEviction,
)
from repro.simcore import Environment


def make_cache(env, capacity=1000, policy="random", seed=0):
    spec = NVMeSpec(
        capacity_bytes=capacity * 10,
        read_bandwidth=1e9,
        write_bandwidth=1e9,
        read_latency=1e-6,
        write_latency=1e-6,
        queue_depth=8,
        fs_open_close_latency=1e-6,
    )
    rng = np.random.default_rng(seed)
    return CacheManager(env, NVMeDevice(env, spec), capacity, make_policy(policy, rng))


def run(env, gen):
    return env.run(env.process(gen))


class TestCacheManager:
    def test_insert_and_contains(self):
        env = Environment()
        cache = make_cache(env)

        def proc():
            ok = yield from cache.insert("/f", 100)
            return ok

        assert run(env, proc()) is True
        assert cache.contains("/f")
        assert cache.used_bytes == 100
        assert cache.n_files == 1

    def test_duplicate_insert_is_noop(self):
        env = Environment()
        cache = make_cache(env)

        def proc():
            yield from cache.insert("/f", 100)
            yield from cache.insert("/f", 100)

        run(env, proc())
        assert cache.used_bytes == 100

    def test_oversized_file_refused(self):
        env = Environment()
        cache = make_cache(env, capacity=100)

        def proc():
            ok = yield from cache.insert("/big", 200)
            return ok

        assert run(env, proc()) is False
        assert cache.used_bytes == 0

    def test_eviction_frees_space(self):
        env = Environment()
        cache = make_cache(env, capacity=250)

        def proc():
            for i in range(5):
                yield from cache.insert(f"/f{i}", 100)

        run(env, proc())
        assert cache.used_bytes <= 250
        assert cache.n_files == 2
        assert cache.metrics.counter("cache.evictions").value == 3

    def test_read_returns_size(self):
        env = Environment()
        cache = make_cache(env)

        def proc():
            yield from cache.insert("/f", 123)
            size = yield from cache.read("/f")
            return size

        assert run(env, proc()) == 123

    def test_read_missing_raises(self):
        env = Environment()
        cache = make_cache(env)

        def proc():
            yield from cache.read("/ghost")

        with pytest.raises(KeyError):
            run(env, proc())

    def test_purge(self):
        env = Environment()
        cache = make_cache(env)

        def proc():
            for i in range(3):
                yield from cache.insert(f"/f{i}", 50)

        run(env, proc())
        cache.purge()
        assert cache.n_files == 0
        assert cache.used_bytes == 0
        assert cache.device.used_bytes == 0

    def test_explicit_evict_missing_raises(self):
        env = Environment()
        cache = make_cache(env)
        with pytest.raises(KeyError):
            cache.evict("/ghost")

    def test_invalid_size_rejected(self):
        env = Environment()
        cache = make_cache(env)

        def proc():
            yield from cache.insert("/f", 0)

        with pytest.raises(ValueError):
            run(env, proc())

    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            make_cache(env, capacity=0)


class TestLRU:
    def test_evicts_least_recently_used(self):
        env = Environment()
        cache = make_cache(env, capacity=300, policy="lru")

        def proc():
            yield from cache.insert("/a", 100)
            yield from cache.insert("/b", 100)
            yield from cache.insert("/c", 100)
            cache.touch("/a")  # /b is now LRU
            yield from cache.insert("/d", 100)

        run(env, proc())
        assert cache.contains("/a")
        assert not cache.contains("/b")
        assert cache.contains("/d")


class TestFIFO:
    def test_evicts_first_inserted_regardless_of_access(self):
        env = Environment()
        cache = make_cache(env, capacity=300, policy="fifo")

        def proc():
            yield from cache.insert("/a", 100)
            yield from cache.insert("/b", 100)
            yield from cache.insert("/c", 100)
            cache.touch("/a")
            yield from cache.insert("/d", 100)

        run(env, proc())
        assert not cache.contains("/a")
        assert cache.contains("/b")


class TestMinIO:
    def test_never_replaces_once_full(self):
        env = Environment()
        cache = make_cache(env, capacity=300, policy="minio")

        def proc():
            for name in "abc":
                yield from cache.insert(f"/{name}", 100)
            ok = yield from cache.insert("/d", 100)
            return ok

        assert run(env, proc()) is False
        assert cache.contains("/a")
        assert cache.contains("/b")
        assert cache.contains("/c")
        assert cache.metrics.counter("cache.refused").value == 1

    def test_cached_set_is_stable_across_epochs(self):
        env = Environment()
        cache = make_cache(env, capacity=500, policy="minio")

        def epoch(order):
            for i in order:
                if cache.contains(f"/f{i}"):
                    yield from cache.read(f"/f{i}")
                else:
                    yield from cache.insert(f"/f{i}", 100)

        def proc():
            yield from epoch(range(10))
            first = {f"/f{i}" for i in range(10) if cache.contains(f"/f{i}")}
            yield from epoch(reversed(range(10)))
            second = {f"/f{i}" for i in range(10) if cache.contains(f"/f{i}")}
            return first, second

        first, second = run(env, proc())
        assert first == second
        assert len(first) == 5


class TestRandomEviction:
    def test_victim_is_resident(self):
        rng = np.random.default_rng(0)
        pol = RandomEviction(rng)
        for i in range(10):
            pol.on_insert(f"/f{i}")
        for _ in range(50):
            assert pol.victim() in {f"/f{i}" for i in range(10)}

    def test_empty_returns_none(self):
        assert RandomEviction(np.random.default_rng(0)).victim() is None

    def test_swap_remove_consistency(self):
        rng = np.random.default_rng(1)
        pol = RandomEviction(rng)
        for i in range(5):
            pol.on_insert(f"/f{i}")
        pol.on_delete("/f2")
        pol.on_delete("/f0")
        remaining = {"/f1", "/f3", "/f4"}
        for _ in range(30):
            assert pol.victim() in remaining


class TestPolicyFactory:
    @pytest.mark.parametrize("name,cls", [
        ("random", RandomEviction),
        ("lru", LRUEviction),
        ("fifo", FIFOEviction),
        ("minio", MinIOEviction),
    ])
    def test_kinds(self, name, cls):
        assert isinstance(make_policy(name, np.random.default_rng(0)), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_policy("arc", np.random.default_rng(0))


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=40),
    policy=st.sampled_from(["random", "lru", "fifo", "minio"]),
)
@settings(max_examples=60, deadline=None)
def test_property_cache_never_exceeds_capacity(sizes, policy):
    """Invariant: used_bytes <= capacity after any insert sequence."""
    env = Environment()
    cache = make_cache(env, capacity=1000, policy=policy)

    def proc():
        for i, size in enumerate(sizes):
            yield from cache.insert(f"/f{i}", size)
            assert cache.used_bytes <= cache.capacity_bytes
            assert cache.used_bytes == cache.device.used_bytes

    env.run(env.process(proc()))


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_property_accounting_matches_contents(sizes):
    """used_bytes always equals the sum of resident file sizes."""
    env = Environment()
    cache = make_cache(env, capacity=800, policy="lru")
    resident = {}

    def proc():
        for i, size in enumerate(sizes):
            ok = yield from cache.insert(f"/f{i}", size)
            if ok:
                resident[f"/f{i}"] = size
            # Reconcile against the policy's evictions.
            for path in list(resident):
                if not cache.contains(path):
                    del resident[path]
            assert cache.used_bytes == sum(resident.values())

    env.run(env.process(proc()))
