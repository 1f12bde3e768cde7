"""Node-local cache management and eviction (paper §III-G).

Each HVAC server instance owns a :class:`CacheManager` over (a slice
of) its node's NVMe.  The paper's prototype evicts *randomly* when the
dataset outgrows the aggregate node-local capacity and notes that "various
cache-eviction and replacement policies can be considered" — we provide
``random`` (paper default), ``lru``, ``fifo``, and ``minio`` (CoorDL's
no-replacement policy: once full, new items are simply not cached, so the
cached subset is stable across epochs).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional

import numpy as np

from ..simcore import Environment
from ..storage.localfs import LocalFS

__all__ = ["CacheManager", "EvictionPolicy", "make_policy"]

RACE_CELLS = (
    ("cache.<name>", ("_sizes", "_stored", "_used", "_raw_used"),
     "the byte budget couples entries: any insert can evict any path"),
)


class EvictionPolicy:
    """Victim selection strategy over the cached-file index.

    The whole hierarchy is slotted (PERF101): ``on_access`` runs on
    every cache hit, so instances live on the per-read path."""

    __slots__ = ()

    name = "abstract"

    def on_insert(self, path: str) -> None:
        raise NotImplementedError

    def on_access(self, path: str) -> None:
        raise NotImplementedError

    def on_delete(self, path: str) -> None:
        raise NotImplementedError

    def victim(self) -> Optional[str]:
        """Path to evict next, or None to refuse insertion (MinIO-style)."""
        raise NotImplementedError


class RandomEviction(EvictionPolicy):
    """The HVAC prototype's policy: evict a uniformly random resident file."""

    __slots__ = ("_rng", "_paths", "_index")

    name = "random"

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._paths: list[str] = []
        self._index: dict[str, int] = {}

    def on_insert(self, path: str) -> None:
        self._index[path] = len(self._paths)
        self._paths.append(path)

    def on_access(self, path: str) -> None:
        pass

    def on_delete(self, path: str) -> None:
        # Swap-remove keeps victim() O(1).
        idx = self._index.pop(path)
        last = self._paths.pop()
        if last != path:
            self._paths[idx] = last
            self._index[last] = idx

    def victim(self) -> Optional[str]:
        if not self._paths:
            return None
        return self._paths[int(self._rng.integers(len(self._paths)))]


class LRUEviction(EvictionPolicy):
    __slots__ = ("_order",)

    name = "lru"

    def __init__(self):
        self._order: OrderedDict[str, None] = OrderedDict()

    def on_insert(self, path: str) -> None:
        self._order[path] = None

    def on_access(self, path: str) -> None:
        self._order.move_to_end(path)

    def on_delete(self, path: str) -> None:
        self._order.pop(path, None)

    def victim(self) -> Optional[str]:
        return next(iter(self._order), None)


class FIFOEviction(EvictionPolicy):
    __slots__ = ("_order",)

    name = "fifo"

    def __init__(self):
        self._order: OrderedDict[str, None] = OrderedDict()

    def on_insert(self, path: str) -> None:
        self._order[path] = None

    def on_access(self, path: str) -> None:
        pass

    def on_delete(self, path: str) -> None:
        self._order.pop(path, None)

    def victim(self) -> Optional[str]:
        return next(iter(self._order), None)


class MinIOEviction(EvictionPolicy):
    """CoorDL's MinIO: cache until full, then never replace.

    Guarantees the cached fraction of the dataset is identical in every
    epoch, trading hit rate for stability.
    """

    __slots__ = ()

    name = "minio"

    def on_insert(self, path: str) -> None:
        pass

    def on_access(self, path: str) -> None:
        pass

    def on_delete(self, path: str) -> None:
        pass

    def victim(self) -> Optional[str]:
        return None  # refuse: caller skips caching the new file


def make_policy(name: str, rng: np.random.Generator) -> EvictionPolicy:
    """Build a policy by name.

    ``rng`` (used by ``random`` only) must be a named stream derived
    from the experiment's :class:`~repro.simcore.RandomStreams` tree —
    never a locally minted generator — so eviction draws replay
    bit-for-bit and stay isolated from every other component (SIM002).
    """
    if name == "random":
        return RandomEviction(rng)
    if name == "lru":
        return LRUEviction()
    if name == "fifo":
        return FIFOEviction()
    if name == "minio":
        return MinIOEviction()
    raise ValueError(f"unknown eviction policy {name!r}")


class CacheManager:
    """Byte-budgeted cache of whole files on one server's LocalFS slice.

    With ``compression_ratio < 1`` the cache becomes a FanStore-style
    compressed tier: residents occupy ``ratio × raw`` bytes on the
    device (and against quotas), and every hit pays a deterministic
    ``decompress_cost_per_byte × raw`` sim-seconds of CPU before the
    bytes are usable.  At the default ratio of 1.0 the tier is inert —
    no extra events, byte-identical schedules.
    """

    def __init__(
        self,
        env: Environment,
        localfs: LocalFS,
        capacity_bytes: int,
        policy: EvictionPolicy,
        name: str = "cache",
        compression_ratio: float = 1.0,
        decompress_cost_per_byte: float = 0.0,
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if not 0 < compression_ratio <= 1:
            raise ValueError("compression_ratio must be in (0, 1]")
        if decompress_cost_per_byte < 0:
            raise ValueError("decompress_cost_per_byte must be >= 0")
        self.env = env
        self.localfs = localfs
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.metrics = env.metrics
        self.name = name
        self.compression_ratio = compression_ratio
        self.decompress_cost_per_byte = decompress_cost_per_byte
        self._compressed = compression_ratio < 1.0
        self._scope = self.metrics.scope(name)
        # Hoisted collectors: every hit/miss/evict bumps one of these on
        # the read path, so the per-op name lookups must not rebuild
        # dotted labels (PERF103).
        self._m_hits = self._scope.counter("hits")
        self._m_uncacheable = self._scope.counter("uncacheable")
        self._m_refused = self._scope.counter("refused")
        self._m_inserts = self._scope.counter("inserts")
        self._m_evictions = self._scope.counter("evictions")
        self._m_read_seconds = self._scope.tally("read_seconds")
        self._m_decompress_seconds = self._scope.tally("decompress_seconds")
        self._sizes: dict[str, int] = {}
        #: device-resident (possibly compressed) size per path
        self._stored: dict[str, int] = {}
        self._used = 0
        self._raw_used = 0
        #: optional :class:`~repro.tenancy.TenantCacheArbiter`; when set
        #: it owns admission and victim selection on the insert path
        self.arbiter = None
        #: race-sanitizer cell: the whole map is one cell because the
        #: byte budget couples entries (an insert can evict any path)
        self._cell = f"cache.{name}"

    # -- queries -----------------------------------------------------------
    def contains(self, path: str) -> bool:
        self.env.note_access(self._cell, "r")
        return path in self._sizes

    @property
    def used_bytes(self) -> int:
        """Device bytes occupied (compressed sizes when the tier is on)."""
        return self._used

    @property
    def raw_bytes(self) -> int:
        """Uncompressed bytes the residents represent."""
        return self._raw_used

    @property
    def n_files(self) -> int:
        return len(self._sizes)

    def stored_size(self, path: str) -> int:
        """Device-resident size of ``path`` (raises KeyError if absent)."""
        return self._stored[path]

    def contents(self) -> list[tuple[str, int]]:
        """``(path, size)`` of every resident file, in sorted order —
        the stable iteration surface repair planning walks."""
        self.env.note_access(self._cell, "r")
        return sorted(self._sizes.items())

    def touch(self, path: str) -> None:
        """Record a cache hit for recency-tracking policies."""
        if path in self._sizes:
            self.policy.on_access(path)
            if self.arbiter is not None:
                self.arbiter.on_access(path)
            self._m_hits.incr()

    # -- mutation ------------------------------------------------------------
    def insert(self, path: str, size: int, tenant: Optional[int] = None) -> Generator:
        """Write ``path`` into the cache, evicting as needed.

        Returns True if cached; False if the policy refused (MinIO when
        full), the file alone exceeds capacity, or — under a tenancy
        arbiter — the owning tenant is over quota / out of slab room.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        self.env.note_access(self._cell, "w")
        if path in self._sizes:
            self.touch(path)
            return True
        # Everything below the index — capacity checks, victim budget,
        # quota/slab admission, device accounting — sees the *stored*
        # (compressed) size; only serving knows the raw one.
        stored = max(1, int(size * self.compression_ratio)) if self._compressed else size
        if stored > self.capacity_bytes:
            self._m_uncacheable.incr()
            return False
        arb = self.arbiter
        if arb is not None:
            # The arbiter owns the whole decision: quota/slab admission
            # first, then mode-specific victim selection (it calls back
            # into _evict for each victim it picks).
            if not arb.admit(tenant, path, stored):
                self._m_refused.incr()
                return False
            if not arb.make_room(tenant, path, stored):
                self._m_refused.incr()
                return False
        else:
            while self._used + stored > self.capacity_bytes:
                victim = self.policy.victim()
                if victim is None:
                    self._m_refused.incr()
                    return False
                self._evict(victim)
        # Bookkeeping happens eagerly, before the timed device write, so
        # the index and device accounting can never diverge (a purge or
        # failure mid-write still sees the reservation).
        self.localfs.device.allocate(stored)
        self._sizes[path] = size
        self._stored[path] = stored
        self._used += stored
        self._raw_used += size
        self.policy.on_insert(path)
        if arb is not None:
            arb.on_insert(tenant, path, stored)
        self._m_inserts.incr()
        yield from self.localfs.device.write(stored)
        return True

    def _evict(self, path: str) -> None:
        self.env.note_access(self._cell, "w")
        size = self._sizes.pop(path)
        stored = self._stored.pop(path)
        self._used -= stored
        self._raw_used -= size
        self.localfs.device.release(stored)
        self.policy.on_delete(path)
        if self.arbiter is not None:
            self.arbiter.on_evict(path)
        self._m_evictions.incr()

    def evict(self, path: str) -> None:
        """Explicit eviction (tests/teardown)."""
        if path not in self._sizes:
            raise KeyError(path)
        self._evict(path)

    def purge(self) -> None:
        """Drop everything — the job-end lifecycle teardown (§III-D)."""
        for path in list(self._sizes):
            self._evict(path)

    # -- timed access --------------------------------------------------------
    def read(self, path: str) -> Generator:
        """Serve a cached file from the NVMe; returns its size."""
        self.env.note_access(self._cell, "r")
        size = self._sizes.get(path)
        if size is None:
            raise KeyError(path)
        self.touch(path)
        t0 = self.env.now
        # No per-read open/close: the data mover keeps cache-file
        # descriptors open across requests (unlike the client-visible
        # XFS path, which pays the full <open, read, close> each time).
        yield from self.localfs.device.read(self._stored[path])
        if self._compressed:
            cost = self.decompress_cost_per_byte * size
            if cost > 0:
                yield self.env.timeout(cost)
            self._m_decompress_seconds.add(cost)
        self._m_read_seconds.add(self.env.now - t0)
        return size
