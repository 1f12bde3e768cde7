"""Unit + property tests for hash-based I/O redirection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConsistentHashPlacement,
    LocalityPlacement,
    ModuloPlacement,
    make_placement,
    placement_histogram,
)


class TestModuloPlacement:
    def test_home_in_range(self):
        p = ModuloPlacement(10)
        for i in range(100):
            assert 0 <= p.home(f"/d/f{i}") < 10

    def test_deterministic(self):
        p1, p2 = ModuloPlacement(16), ModuloPlacement(16)
        for i in range(50):
            assert p1.home(f"/f{i}") == p2.home(f"/f{i}")

    def test_replicas_distinct_and_ordered(self):
        p = ModuloPlacement(8, replication_factor=3)
        reps = p.replicas("/d/x")
        assert len(reps) == 3
        assert len(set(reps)) == 3
        assert reps[1] == (reps[0] + 1) % 8

    def test_single_server(self):
        p = ModuloPlacement(1)
        assert p.replicas("/any") == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ModuloPlacement(0)
        with pytest.raises(ValueError):
            ModuloPlacement(4, replication_factor=5)
        with pytest.raises(ValueError):
            ModuloPlacement(4, replication_factor=0)

    def test_balanced_distribution(self):
        """Paper Fig 15: hash placement is near-uniform across servers."""
        n = 64
        p = ModuloPlacement(n)
        counts = placement_histogram(p, [f"/img/{i}.jpg" for i in range(64_000)])
        # every server within ±15% of ideal
        ideal = 64_000 / n
        assert counts.min() > ideal * 0.85
        assert counts.max() < ideal * 1.15


class TestConsistentHashPlacement:
    def test_home_in_range(self):
        p = ConsistentHashPlacement(10, vnodes=32)
        for i in range(100):
            assert 0 <= p.home(f"/d/f{i}") < 10

    def test_replicas_distinct(self):
        p = ConsistentHashPlacement(8, replication_factor=3, vnodes=16)
        reps = p.replicas("/d/x")
        assert len(set(reps)) == 3

    def test_minimal_movement_on_growth(self):
        """Adding a server must move only ~1/(n+1) of files."""
        paths = [f"/f{i}" for i in range(5000)]
        p8 = ConsistentHashPlacement(8, vnodes=64)
        p9 = ConsistentHashPlacement(9, vnodes=64)
        moved = sum(p8.home(x) != p9.home(x) for x in paths)
        # mod-N would move ~8/9 of files; consistent hashing ~1/9.
        assert moved / len(paths) < 0.25

    def test_mod_placement_moves_most_on_growth(self):
        paths = [f"/f{i}" for i in range(5000)]
        p8, p9 = ModuloPlacement(8), ModuloPlacement(9)
        moved = sum(p8.home(x) != p9.home(x) for x in paths)
        assert moved / len(paths) > 0.8

    def test_vnodes_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashPlacement(4, vnodes=0)

    def test_reasonable_balance(self):
        p = ConsistentHashPlacement(16, vnodes=128)
        counts = placement_histogram(p, [f"/x/{i}" for i in range(32_000)])
        ideal = 32_000 / 16
        assert counts.min() > ideal * 0.6
        assert counts.max() < ideal * 1.5


class TestLocalityPlacement:
    def test_fully_local(self):
        p = LocalityPlacement(8, servers_per_node=2, local_fraction=1.0)
        for i in range(200):
            home = p.replicas(f"/f{i}", 2)[0]
            assert home // 2 == 2  # on the client's node

    def test_fully_remote(self):
        p = LocalityPlacement(8, servers_per_node=2, local_fraction=0.0)
        for i in range(200):
            home = p.replicas(f"/f{i}", 1)[0]
            assert home // 2 != 1

    def test_fraction_respected(self):
        p = LocalityPlacement(32, servers_per_node=1, local_fraction=0.25)
        local = sum(p.replicas(f"/f{i}", 5)[0] == 5 for i in range(8000))
        assert 0.21 < local / 8000 < 0.29

    def test_requires_client(self):
        p = LocalityPlacement(8, servers_per_node=2, local_fraction=0.5)
        with pytest.raises(ValueError):
            p.home("/f")

    def test_single_node_always_local(self):
        p = LocalityPlacement(2, servers_per_node=2, local_fraction=0.0)
        assert p.replicas("/f", 0)[0] in (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalityPlacement(8, servers_per_node=2, local_fraction=1.5)
        with pytest.raises(ValueError):
            LocalityPlacement(7, servers_per_node=2, local_fraction=0.5)


class TestFactory:
    def test_mod(self):
        assert isinstance(make_placement("mod", 4), ModuloPlacement)

    def test_consistent(self):
        assert isinstance(
            make_placement("consistent", 4), ConsistentHashPlacement
        )

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_placement("nope", 4)


class TestHistogram:
    def test_counts_sum_to_n_paths(self):
        p = ModuloPlacement(7)
        paths = [f"/f{i}" for i in range(100)]
        assert placement_histogram(p, paths).sum() == 100

    def test_byte_weighted(self):
        p = ModuloPlacement(3)
        paths, sizes = ["/a", "/b"], [10, 20]
        assert placement_histogram(p, paths, sizes).sum() == 30

    def test_length_mismatch(self):
        p = ModuloPlacement(3)
        with pytest.raises(ValueError):
            placement_histogram(p, ["/a"], [1, 2])


@given(
    n_servers=st.integers(min_value=1, max_value=64),
    repl=st.integers(min_value=1, max_value=4),
    path=st.text(min_size=1, max_size=64),
)
@settings(max_examples=100, deadline=None)
def test_property_mod_replicas_valid(n_servers, repl, path):
    repl = min(repl, n_servers)
    p = ModuloPlacement(n_servers, replication_factor=repl)
    reps = p.replicas(path)
    assert len(reps) == repl
    assert len(set(reps)) == repl
    assert all(0 <= r < n_servers for r in reps)


@given(
    n_servers=st.integers(min_value=1, max_value=32),
    repl=st.integers(min_value=1, max_value=3),
    path=st.text(min_size=1, max_size=64),
)
@settings(max_examples=50, deadline=None)
def test_property_consistent_replicas_valid(n_servers, repl, path):
    repl = min(repl, n_servers)
    p = ConsistentHashPlacement(n_servers, replication_factor=repl, vnodes=8)
    reps = p.replicas(path)
    assert len(set(reps)) == repl
    assert all(0 <= r < n_servers for r in reps)


@given(path=st.text(min_size=1, max_size=128))
@settings(max_examples=100, deadline=None)
def test_property_same_path_same_home(path):
    """Every client computes the same home — the no-metadata invariant."""
    p = ModuloPlacement(16)
    assert p.replicas(path, 0)[0] == p.replicas(path, 7)[0]
