"""Lustre-like parallel file system model.

The paper discusses Lustre throughout (LPCC in §II-D, Frontier's future
deployment in the conclusion) and claims HVAC is PFS-agnostic: "Any
optimizations applied to GPFS can be inherently seen and applied to
HVAC without any modifications."  This second PFS personality makes
that claim testable: HVAC runs unmodified over either backend.

Differences from the GPFS model that matter to small-file DL I/O:

* **Metadata**: a (usually small) set of MDS with DNE-style hashed
  directory striping; opens take an ``ldlm`` layout+read lock — one
  lock RPC per open, *cached per client node* so re-opens by the same
  node skip the MDS (Lustre's client lock cache, absent in our GPFS
  token model).  A finite lock table evicts old locks (LRU), so DL's
  huge randomized namespaces defeat the cache — exactly why Lustre
  also struggles with many small files.
* **Data**: files are striped over OSTs (default stripe_count=1 for
  small files, like real deployments), each OST a bandwidth server
  behind an OSS node; an OSS serializes its OSTs' network service.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generator

from ..simcore import (
    Environment,
    Resource,
    stable_hash64,
)
from .base import FileBackend, OpenFile

__all__ = ["LustreSpec", "Lustre"]


@dataclass(frozen=True)
class LustreSpec:
    """Sizing of a Lustre filesystem (defaults: Orion-like ratios,
    scaled to the same 2.5 TB/s envelope as the Alpine model so the two
    personalities are comparable)."""

    n_mds: int = 8
    mds_ops_per_sec: float = 60_000.0
    #: serialized MDS ops per open when the lock is NOT cached
    ops_per_open: float = 2.0
    ops_per_close: float = 1.0
    #: per-client-node ldlm lock cache entries (LRU)
    client_lock_cache: int = 64_000
    n_oss: int = 64
    osts_per_oss: int = 4
    ost_bandwidth: float = 9.8e9  # 64 × 4 × 9.8 GB/s ≈ 2.5 TB/s
    #: stripes for files above ``stripe_threshold`` (PFL-style)
    stripe_count: int = 4
    stripe_threshold: int = 64 * 1024 * 1024
    stripe_size: int = 16 * 1024 * 1024
    data_latency: float = 1.0e-3  # shared-system interference (pure delay)
    #: per-request OST occupancy (request processing + queueing)
    ost_request_overhead: float = 100e-6
    client_overhead: float = 20e-6

    @property
    def n_osts(self) -> int:
        return self.n_oss * self.osts_per_oss

    @property
    def aggregate_bandwidth(self) -> float:
        return self.n_osts * self.ost_bandwidth

    @property
    def aggregate_metadata_ops(self) -> float:
        return self.n_mds * self.mds_ops_per_sec


class _MDS:
    __slots__ = ("env", "res", "op_time")

    def __init__(self, env: Environment, ops_per_sec: float):
        self.env = env
        self.res = Resource(env, capacity=1)
        self.op_time = 1.0 / ops_per_sec

    def do_ops(self, n_ops: float) -> Generator:
        with self.res.request() as slot:
            yield slot
            yield self.env.timeout(n_ops * self.op_time)


class _OST:
    __slots__ = ("env", "res", "latency", "overhead", "bandwidth")

    def __init__(
        self, env: Environment, latency: float, overhead: float, bandwidth: float
    ):
        self.env = env
        self.res = Resource(env, capacity=1)
        self.latency = latency  # interference: pure delay, no occupancy
        self.overhead = overhead
        self.bandwidth = bandwidth

    def serve(self, nbytes: int) -> Generator:
        yield self.env.timeout(self.latency)
        with self.res.request() as slot:
            yield slot
            yield self.env.timeout(self.overhead + nbytes / self.bandwidth)


class Lustre(FileBackend):
    """The Lustre personality; drop-in wherever GPFS is used."""

    def __init__(
        self,
        env: Environment,
        spec: LustreSpec,
        n_client_nodes: int,
        client_link_bandwidth: float,
    ):
        self.env = env
        self.spec = spec
        self.metrics = env.metrics
        self._mds = [_MDS(env, spec.mds_ops_per_sec) for _ in range(spec.n_mds)]
        self._osts = [
            _OST(
                env,
                spec.data_latency,
                spec.ost_request_overhead,
                spec.ost_bandwidth,
            )
            for _ in range(spec.n_osts)
        ]
        self._client_links = [Resource(env, capacity=1) for _ in range(n_client_nodes)]
        self._client_bw = client_link_bandwidth
        # Per-client-node ldlm lock caches: path -> None, LRU order.
        self._lock_caches: list[OrderedDict] = [
            OrderedDict() for _ in range(n_client_nodes)
        ]

    # -- placement ----------------------------------------------------------
    def mds_for(self, path: str) -> int:
        return stable_hash64("lustre-mds", path) % len(self._mds)

    def ost_for(self, path: str, stripe_index: int) -> int:
        start = stable_hash64("lustre-ost", path) % len(self._osts)
        return (start + stripe_index) % len(self._osts)

    def layout_of(self, size: int) -> tuple[int, int]:
        """(stripe_count, stripe_size) per the PFL-style policy."""
        if size > self.spec.stripe_threshold:
            return self.spec.stripe_count, self.spec.stripe_size
        return 1, max(size, 1)

    # -- lock cache -----------------------------------------------------------
    def _lock_cached(self, node: int, path: str) -> bool:
        cache = self._lock_caches[node]
        if path in cache:
            cache.move_to_end(path)
            return True
        return False

    def _lock_insert(self, node: int, path: str) -> None:
        cache = self._lock_caches[node]
        cache[path] = None
        while len(cache) > self.spec.client_lock_cache:
            cache.popitem(last=False)

    def lock_cache_size(self, node: int) -> int:
        return len(self._lock_caches[node])

    # -- FileBackend ------------------------------------------------------------
    def open(self, path: str, size: int, client_node: int) -> Generator:
        yield self.env.timeout(self.spec.client_overhead)
        if self._lock_cached(client_node, path):
            # ldlm lock still held by this client: no MDS round-trip.
            self.metrics.counter("lustre.lock_hits").incr()
        else:
            yield from self._mds[self.mds_for(path)].do_ops(self.spec.ops_per_open)
            self._lock_insert(client_node, path)
            self.metrics.counter("lustre.lock_misses").incr()
        self.metrics.counter("lustre.opens").incr()
        return OpenFile(path=path, size=size, backend=self, client_node=client_node)

    def read(self, handle: OpenFile, nbytes: int) -> Generator:
        if handle.closed:
            raise ValueError(f"read on closed handle {handle.path}")
        nbytes = min(nbytes, handle.size - handle.offset)
        if nbytes <= 0:
            return 0
        stripe_count, stripe_size = self.layout_of(handle.size)

        fetches = []
        first = handle.offset // stripe_size
        last = (handle.offset + nbytes - 1) // stripe_size
        for stripe in range(first, last + 1):
            lo = max(handle.offset, stripe * stripe_size)
            hi = min(handle.offset + nbytes, (stripe + 1) * stripe_size)
            ost = self._osts[self.ost_for(handle.path, stripe % stripe_count)]
            fetches.append(self.env.process(ost.serve(hi - lo)))
        link = self._client_links[handle.client_node]
        with link.request() as slot:
            yield slot
            yield self.env.timeout(nbytes / self._client_bw)
        from ..simcore import AllOf

        yield AllOf(self.env, fetches)
        handle.offset += nbytes
        self.metrics.counter("lustre.reads").incr()
        self.metrics.tally("lustre.read_bytes").add(nbytes)
        return nbytes

    def close(self, handle: OpenFile) -> Generator:
        if handle.closed:
            raise ValueError(f"double close of {handle.path}")
        handle.closed = True
        # Lock stays cached at the client: close is a local operation
        # unless the lock was already evicted (then a cancel RPC).
        if self._lock_cached(handle.client_node, handle.path):
            yield self.env.timeout(2e-6)
        else:
            yield from self._mds[self.mds_for(handle.path)].do_ops(
                self.spec.ops_per_close
            )
        self.metrics.counter("lustre.closes").incr()

    @property
    def aggregate_bandwidth(self) -> float:
        return self.spec.aggregate_bandwidth
