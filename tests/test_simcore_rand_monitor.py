"""Unit tests for random streams and metric collectors."""

import hashlib

import numpy as np
import pytest

from repro.simcore import MetricRegistry, RandomStreams, stable_hash64


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("a", 1) == stable_hash64("a", 1)

    def test_distinct_inputs_distinct_hash(self):
        values = {stable_hash64("file", i) for i in range(1000)}
        assert len(values) == 1000

    def test_order_sensitivity(self):
        assert stable_hash64("a", "b") != stable_hash64("b", "a")

    def test_no_concat_ambiguity(self):
        # ("ab","c") must differ from ("a","bc")
        assert stable_hash64("ab", "c") != stable_hash64("a", "bc")

    def test_64bit_range(self):
        h = stable_hash64("x")
        assert 0 <= h < 2**64


def _fresh_hash64(*parts):
    """``stable_hash64`` with a freshly constructed hasher per call."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


@pytest.mark.parametrize("parts", [
    ("hvac-home", "/gpfs/imagenet/train/n0001/img_17.JPEG"),
    ("hvac-ring", 3, 127),
    (0, "child", "cluster"),
    (1.5, -0.0, float("inf"), 2**70),
    (("nested", 1), ("a", ("b", 2.25))),
    ("données", "画像", "\x1f", ""),
    ("x",),
])
def test_stable_hash64_matches_a_fresh_hasher(parts):
    assert stable_hash64(*parts) == _fresh_hash64(*parts)


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).stream("sizes").random(5)
        b = RandomStreams(7).stream("sizes").random(5)
        assert np.allclose(a, b)

    def test_different_names_independent(self):
        rs = RandomStreams(7)
        a = rs.stream("a").random(5)
        b = rs.stream("b").random(5)
        assert not np.allclose(a, b)

    def test_stream_cached(self):
        rs = RandomStreams(0)
        assert rs.stream("x") is rs.stream("x")

    def test_draws_in_one_stream_dont_affect_another(self):
        rs1 = RandomStreams(3)
        rs1.stream("noise").random(100)  # extra draws
        v1 = rs1.stream("shuffle").permutation(10)

        rs2 = RandomStreams(3)
        v2 = rs2.stream("shuffle").permutation(10)
        assert np.array_equal(v1, v2)

    def test_child_streams_differ_from_parent(self):
        rs = RandomStreams(3)
        child = rs.child("node0")
        assert not np.allclose(
            rs.stream("x").random(4), child.stream("x").random(4)
        )

    def test_shuffled_is_permutation(self):
        perm = RandomStreams(0).shuffled("s", 50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_lognormal_sizes_mean(self):
        sizes = RandomStreams(0).lognormal_sizes("f", 163_000, 0.6, 200_000)
        assert abs(sizes.mean() - 163_000) / 163_000 < 0.02
        assert sizes.min() >= 1

    def test_lognormal_sizes_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            RandomStreams(0).lognormal_sizes("f", 0, 0.6, 10)

    def test_choice(self):
        rs = RandomStreams(1)
        assert rs.choice("c", ["only"]) == "only"


class TestMetricRegistry:
    def test_counter_identity_and_incr(self):
        reg = MetricRegistry()
        reg.counter("hits").incr()
        reg.counter("hits").incr(4)
        assert reg.counter("hits").value == 5

    def test_snapshot_shapes(self):
        reg = MetricRegistry()
        reg.counter("c").incr()
        reg.counter("s").incr(0.5)
        assert reg.snapshot() == {"c": 1, "s": 0.5}
