"""Deterministic random-number streams.

Every stochastic component (file-size draws, service-time jitter, shuffle
order, eviction victims) pulls from its own named child stream derived
from a single experiment seed, so that (a) runs are reproducible and
(b) changing the draw count in one component does not perturb another —
the property the paper relies on when claiming HVAC leaves the SGD
shuffle sequence untouched (Fig 14).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

__all__ = ["RandomStreams", "stable_hash64"]


#: Never updated: each call hashes into a copy, which skips the
#: constructor's parameter parsing and state setup.
_BLAKE2B_64 = hashlib.blake2b(digest_size=8)


def stable_hash64(*parts: object) -> int:
    """A process-stable 64-bit hash of the given parts.

    ``hash()`` is salted per-interpreter for strings, so it cannot be
    used for cross-run-deterministic placement; this can.
    """
    h = _BLAKE2B_64.copy()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


class RandomStreams:
    """A tree of named, independent :class:`numpy.random.Generator` streams."""

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The (cached) generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            child_seed = stable_hash64(self.seed, name) & 0x7FFFFFFFFFFFFFFF
            # simlint: waive SIM002 -- the sanctioned construction site
            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen

    def child(self, name: str) -> "RandomStreams":
        """A derived stream tree (for per-node / per-process scoping)."""
        return RandomStreams(stable_hash64(self.seed, "child", name))

    def shuffled(self, name: str, n: int) -> np.ndarray:
        """A fresh random permutation of ``range(n)`` from stream ``name``."""
        return self.stream(name).permutation(n)

    def exponential(self, name: str, mean: float) -> float:
        return float(self.stream(name).exponential(mean))

    def uniform(self, name: str, low: float, high: float) -> float:
        return float(self.stream(name).uniform(low, high))

    def choice(self, name: str, seq: Sequence) -> object:
        return seq[int(self.stream(name).integers(len(seq)))]

    def lognormal_sizes(
        self, name: str, mean_bytes: float, sigma: float, n: int
    ) -> np.ndarray:
        """``n`` lognormal file sizes with the requested arithmetic mean.

        DL datasets (e.g. ImageNet) have long-tailed size distributions;
        lognormal with ``sigma≈0.6`` matches published ImageNet histograms
        closely enough for load-balance experiments (Fig 15).
        """
        if mean_bytes <= 0:
            raise ValueError("mean_bytes must be positive")
        mu = np.log(mean_bytes) - 0.5 * sigma * sigma
        sizes = self.stream(name).lognormal(mu, sigma, size=n)
        return np.maximum(sizes.astype(np.int64), 1)
