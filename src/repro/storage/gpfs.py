"""GPFS-like shared parallel file system (Alpine model).

Reproduces the two bottlenecks that motivate HVAC (paper §II-C):

* **Metadata path** — every ``open`` contacts the metadata server owning
  the file (hash-partitioned namespace) for a lookup plus a read-token
  grant; every ``close`` releases the token.  Each MDS is a serial
  server with finite ops/s, so millions of concurrent small-file opens
  saturate the *low count of metadata resources* exactly as described.
* **Data path** — file contents are striped over NSD data servers, each
  a serial bandwidth server; 154 × 16.3 GB/s ≈ the 2.5 TB/s aggregate
  Summit observes.  The issuing client additionally pays for its own
  node's storage-network link, so a single client can never exceed one
  NIC of PFS bandwidth.

The model intentionally omits writes: HVAC only ever reads from the PFS
(the paper's central simplification), and MDTest here measures the same
read transactions the paper's Figures 3–4 do.
"""

from __future__ import annotations

import abc
from typing import Generator

from ..cluster.specs import PFSSpec
from ..simcore import (
    AllOf,
    Environment,
    Resource,
    stable_hash64,
)
from .base import FileBackend, OpenFile

__all__ = ["GPFS"]


class _MetadataServer:
    """One MDS: serial token/lookup server with finite op throughput."""

    __slots__ = ("env", "res", "op_time")

    def __init__(self, env: Environment, ops_per_sec: float):
        self.env = env
        self.res = Resource(env, capacity=1)
        self.op_time = 1.0 / ops_per_sec

    def do_ops(self, n_ops: float) -> Generator:
        with (yield self.res):
            yield n_ops * self.op_time


class _DataServer:
    """One NSD server: serial bandwidth server plus a pure-delay term.

    The server is *occupied* for ``overhead + transfer`` (this job's
    footprint); the observed ``latency`` on top is interference from the
    rest of the center and delays the caller without consuming this
    server's capacity.
    """

    __slots__ = ("env", "res", "latency", "overhead", "bandwidth")

    def __init__(
        self,
        env: Environment,
        latency: float,
        overhead: float,
        bandwidth: float,
    ):
        self.env = env
        self.res = Resource(env, capacity=1)
        self.latency = latency
        self.overhead = overhead
        self.bandwidth = bandwidth

    def serve(self, nbytes: int) -> Generator:
        yield self.latency
        with (yield self.res):
            yield self.overhead + nbytes / self.bandwidth


class _StripedFS(FileBackend):
    """The read path GPFS and Lustre share.

    A read fetches the stripes it covers in parallel from their data
    servers while the client node's own storage-network link bounds
    delivery.  A subclass supplies the layout: :meth:`layout_of` (stripe
    count and size of a file) and ``_server_for`` (the index into
    ``_servers`` of a file's ``i``-th stripe).
    """

    def __init__(
        self,
        env: Environment,
        spec,
        scope: str,
        servers: list[_DataServer],
        n_client_nodes: int,
        client_link_bandwidth: float,
    ):
        self.env = env
        self.spec = spec
        self.metrics = env.metrics
        self._scope = self.metrics.scope(scope)
        self._servers = servers
        # One storage-network link per client node (shared by all the
        # node's processes): PFS traffic rides the node NIC.
        self._client_links = [Resource(env, capacity=1) for _ in range(n_client_nodes)]
        self._client_bw = client_link_bandwidth

    @abc.abstractmethod
    def layout_of(self, size: int) -> tuple[int, int]:
        """``(stripe_count, stripe_size)`` of a ``size``-byte file."""

    @abc.abstractmethod
    def _server_for(self, path: str, stripe_index: int) -> int:
        """Index into ``_servers`` of the file's ``stripe_index``-th stripe."""

    def read(self, handle: OpenFile, nbytes: int) -> Generator:
        """Fetch the stripes covering ``nbytes`` from their data servers."""
        if handle.closed:
            raise ValueError(f"read on closed handle {handle.path}")
        nbytes = min(nbytes, handle.size - handle.offset)
        if nbytes <= 0:
            return 0
        stripe_count, stripe_size = self.layout_of(handle.size)
        first = handle.offset // stripe_size
        last = (handle.offset + nbytes - 1) // stripe_size

        # Stripe fetches proceed in parallel on their servers …
        fetches = []
        for stripe in range(first, last + 1):
            lo = max(handle.offset, stripe * stripe_size)
            hi = min(handle.offset + nbytes, (stripe + 1) * stripe_size)
            server = self._servers[self._server_for(handle.path, stripe % stripe_count)]
            fetches.append(self.env.process(server.serve(hi - lo)))
        # … while the client's own link constrains total delivery.
        link = self._client_links[handle.client_node]
        with (yield link):
            yield nbytes / self._client_bw
        yield AllOf(self.env, fetches)

        handle.offset += nbytes
        self._scope.counter("reads").incr()
        self._scope.counter("read_bytes").incr(nbytes)
        return nbytes

    @property
    def aggregate_bandwidth(self) -> float:
        return self.spec.aggregate_bandwidth


class GPFS(_StripedFS):
    """The shared parallel file system, sized by a :class:`PFSSpec`."""

    def __init__(
        self,
        env: Environment,
        spec: PFSSpec,
        n_client_nodes: int,
        client_link_bandwidth: float,
    ):
        self._mds = [
            _MetadataServer(env, spec.metadata_ops_per_sec)
            for _ in range(spec.n_metadata_servers)
        ]
        nsd = [
            _DataServer(
                env,
                spec.data_latency,
                spec.data_server_overhead,
                spec.data_server_bandwidth,
            )
            for _ in range(spec.n_data_servers)
        ]
        super().__init__(env, spec, "gpfs", nsd, n_client_nodes, client_link_bandwidth)

    # -- placement -------------------------------------------------------
    def mds_for(self, path: str) -> int:
        return stable_hash64("gpfs-mds", path) % len(self._mds)

    def nsd_for(self, path: str, stripe_index: int) -> int:
        # GPFS round-robins stripes from a per-file random start.
        start = stable_hash64("gpfs-nsd", path) % len(self._servers)
        return (start + stripe_index) % len(self._servers)

    _server_for = nsd_for

    def layout_of(self, size: int) -> tuple[int, int]:
        """Every file is striped round-robin over all the NSD servers."""
        return len(self._servers), self.spec.stripe_size

    # -- FileBackend -------------------------------------------------------
    def open(self, path: str, size: int, client_node: int) -> Generator:
        """Lookup + read-token acquisition at the owning MDS."""
        yield self.spec.client_overhead
        yield from self._mds[self.mds_for(path)].do_ops(self.spec.ops_per_open)
        self._scope.counter("opens").incr()
        return OpenFile(path=path, size=size, backend=self, client_node=client_node)

    def close(self, handle: OpenFile) -> Generator:
        """Token release at the owning MDS."""
        if handle.closed:
            raise ValueError(f"double close of {handle.path}")
        handle.closed = True
        yield from self._mds[self.mds_for(handle.path)].do_ops(self.spec.ops_per_close)
        self._scope.counter("closes").incr()

    # -- capacity questions ----------------------------------------------
    @property
    def aggregate_metadata_ops(self) -> float:
        return self.spec.aggregate_metadata_ops
