"""The HVAC client library (paper §III-D/E/F).

In the prototype this is an ``LD_PRELOAD`` interposition library that
catches POSIX ``open/read/close`` inside the DL framework and redirects
any path under ``HVAC_DATASET_DIR`` to the HVAC server that *homes* the
file (determined algorithmically by hashing — no metadata service).

Here the client is a :class:`~repro.storage.base.FileBackend`, so the
virtual-POSIX interposer (and the DL data loader) can treat it exactly
like GPFS or a local filesystem.  Costs charged per intercepted call
come from :attr:`HVACSpec.client_request_overhead`.

Failover (§III-H, implemented as the paper's proposed extension) is
*detected*, never oracled: every forwarded read carries a deadline
(:attr:`HVACSpec.rpc_timeout`), failures and timeouts are strikes in a
per-client :class:`~repro.faults.FailureDetector`, suspected servers sit
out a probation period before being re-probed, and a bounded retry loop
with exponential backoff + seeded jitter walks the replica list before
degrading to direct PFS reads — a failed (or hung, or slow, or
partitioned) NVMe costs performance, never the training run.

Telemetry: when a :class:`~repro.obs.SpanRecorder` is attached, every
intercepted ``read`` opens a root ``client.read`` span whose children
trace the full causal path — ``rpc.read`` attempts (with timeout/error
status), ``client.segment`` fan-out for striped files, and
``pfs.fallback`` degradations — and whose annotations carry per-route
byte counts (``bytes:local`` / ``bytes:remote`` / ``bytes:pfs``),
detector ``strike`` events, and the ``degraded`` flag the SLO report
aggregates.  Recording is pure list appends on the hot path; it never
creates kernel events, so it cannot perturb the event stream.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..cluster.specs import ClusterSpec
from ..faults import FailureDetector
from ..rpc import RPCEndpoint, RPCError, RPCTimeout
from ..simcore import (
    AllOf,
    Environment,
    RandomStreams,
    stable_hash64,
)
from ..storage.base import FileBackend, OpenFile
from .hashing import Placement
from .server import HVACServer

__all__ = ["HVACClient"]

# Route-keyed label tables: every delivered read accounts its bytes, so
# the counter / annotation names must not be rebuilt per call (PERF103).
_ROUTE_BYTES = {
    "local": "client_bytes_local",
    "remote": "client_bytes_remote",
    "pfs": "client_bytes_pfs",
}
_ROUTE_ANNOTATION = {
    "local": "bytes:local",
    "remote": "bytes:remote",
    "pfs": "bytes:pfs",
}


class HVACClient(FileBackend):
    """One process's view of the HVAC cache (client side)."""

    def __init__(
        self,
        env: Environment,
        node_id: int,
        servers: list[HVACServer],
        placement: Placement,
        pfs: FileBackend,
        spec: ClusterSpec,
        spread_replica_reads: bool = True,
        rand: RandomStreams | None = None,
        tenant: Optional[int] = None,
    ):
        self.env = env
        self.node_id = node_id
        self.servers = servers
        self.placement = placement
        self.pfs = pfs
        self.spec = spec
        self.metrics = env.metrics
        self.spread_replica_reads = spread_replica_reads
        self.rand = rand or RandomStreams(stable_hash64("hvac-client", node_id))
        #: the run's :class:`~repro.obs.SpanRecorder`, or None
        self.spans = env.spans
        #: tenant this client reads on behalf of (multi-tenant fleets);
        #: None = the classic single-job deployment, byte-identical paths
        self.tenant = tenant
        #: admission-controller degrade mode: route every read straight
        #: to the PFS, consuming zero fleet cache (per-job state)
        self.pfs_only = False
        #: deployment client-table key (how schedules address this client)
        self.client_key = node_id if tenant is None else (node_id, tenant)
        #: optional :class:`~repro.prefetch.LookaheadScheduler` notified
        #: of every intercepted read (advances the clairvoyant cursor)
        self.prefetch_listener = None
        # Deployment-wide aggregate counters keep their historical names
        # (``hvac.client_hits`` …); the per-client scope shadows each of
        # them under ``hvac.c<node>.…`` for SLO attribution.  Tenant
        # clients shadow a third level, ``hvac.t<j>.…``, aggregating the
        # tenant's traffic across all of its per-node clients.
        self._hvac = self.metrics.scope("hvac")
        self._cscope = self._hvac.scope(f"c{node_id}")
        self._tscope = None if tenant is None else self._hvac.scope(f"t{tenant}")
        hvac = spec.hvac
        self.detector = FailureDetector(
            env,
            len(servers),
            suspect_after=hvac.suspect_after,
            probation=hvac.probation_period,
            metrics=self._cscope.scope("detector"),
        )
        # The client endpoint shares the node's fabric ports.
        fabric = servers[0].endpoint.fabric
        self.endpoint = RPCEndpoint(
            env,
            fabric,
            node_id,
            name=f"hvac-c@n{node_id}",
            metrics=self._cscope.scope("rpc"),
        )
        #: optional :class:`~repro.membership.MembershipView` (see
        #: :meth:`attach_membership`); None = detector-only liveness
        self.view = None
        # Topology sort key inputs, computed once (see _rack_pref).
        self._my_rack = node_id // max(1, spec.network.rack_size)

    def attach_membership(self, view, remap: bool = True) -> None:
        """Join the gossip mesh: route by ``view``, share evidence.

        The detector keeps doing first-hand strike counting; every
        suspicion onset is forwarded into ``view``, whose digest then
        rides on all of this endpoint's RPCs (and the anti-entropy
        rounds).  With ``remap`` the placement is wrapped so dead
        servers' hash ranges move wholesale to live stand-ins.
        """
        from ..membership.remap import RemappedPlacement

        self.view = view
        self.detector.listener = view
        if remap:
            # perf: waive PERF101 -- one wrapper per client, built at membership enablement
            self.placement = RemappedPlacement(self.placement, view)

        # perf: waive PERF102 -- closures built once per client at membership enablement
        def provide():
            digest = view.digest()
            return digest, view.digest_bytes(digest)

        # perf: waive PERF102 -- closures built once per client at membership enablement
        def absorb(digest, src):
            view.merge(digest, why="piggyback")

        self.endpoint.digest_provider = provide
        self.endpoint.digest_sink = absorb

    # -- telemetry helpers -------------------------------------------------
    def _incr(self, name: str, n: int = 1) -> None:
        """Bump a client counter at every aggregation level."""
        self._hvac.counter(name).incr(n)
        self._cscope.counter(name).incr(n)
        if self._tscope is not None:
            self._tscope.counter(name).incr(n)

    def _route_bytes(self, root: Optional[int], route: str, nbytes: int) -> None:
        """Account ``nbytes`` delivered via ``route`` (local/remote/pfs)."""
        self._incr(_ROUTE_BYTES[route], nbytes)
        if self.spans is not None and root is not None:
            self.spans.annotate(root, self.env.now, _ROUTE_ANNOTATION[route], nbytes)

    # -- redirection -------------------------------------------------------
    def replica_order(self, path: str) -> list[int]:
        """Server ids to try for ``path``, preferred first."""
        replicas = self.placement.replicas(path, client=self.node_id)
        if len(replicas) <= 1:
            return replicas
        rack_of = getattr(self.placement, "rack_of", None)
        if self.spec.hvac.topology_aware and rack_of is not None:
            # Topology preference: replicas in this client's rack first
            # (keeps reads off oversubscribed rack uplinks); ties keep
            # placement order so failover stays deterministic.  The key
            # is a bound method, not a per-call closure (PERF102).
            replicas = sorted(replicas, key=self._rack_pref)
        elif self.spread_replica_reads:
            # Distribute read load across the replica set: stable per
            # (client, path) so an epoch's access pattern is deterministic.
            start = stable_hash64("hvac-spread", self.node_id, path) % len(replicas)
            replicas = replicas[start:] + replicas[:start]
        return replicas

    def _rack_pref(self, sid: int) -> int:
        """Sort key for :meth:`replica_order`: same-rack replicas first."""
        return 0 if self.placement.rack_of(sid) == self._my_rack else 1

    def _candidates(self, path: str) -> list[int]:
        """Replica ids the detector currently allows requests to.

        Liveness is pure client-side suspicion — observed timeouts and
        errors — never a peek at server state.
        """
        order = self.replica_order(path)
        if not self.spec.hvac.failover_enabled:
            order = order[:1]
        view = self.view
        return [
            sid
            for sid in order
            if self.detector.usable(sid)
            and (view is None or view.routable(sid))
        ]

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with seeded jitter before retry ``attempt``."""
        hvac = self.spec.hvac
        base = min(hvac.rpc_backoff_base * (2.0**attempt), hvac.rpc_backoff_cap)
        return base * self.rand.uniform("backoff", 0.5, 1.5)

    # -- FileBackend (the three intercepted calls) ----------------------------
    def open(self, path: str, size: int, client_node: int) -> Generator:
        """Intercepted ``open``: start tracking; no server round-trip yet.

        The prototype begins tracking on open and issues the actual
        forwarding on the first read — opens must stay cheap because DL
        frameworks stat/open aggressively.
        """
        yield self.env.timeout(self.spec.hvac.client_request_overhead)
        self._incr("client_opens")
        return OpenFile(path=path, size=size, backend=self, client_node=client_node)

    def read(self, handle: OpenFile, nbytes: int) -> Generator:
        """Intercepted ``read``: forward to the homing server + bulk pull.

        Files above the configured stripe threshold (when
        ``stripe_large_files`` is on) are fetched as independent
        segments from multiple servers in parallel — the segment-level
        layout the paper proposes for skewed file sizes (§III-E).
        """
        if handle.closed:
            raise ValueError(f"read on closed handle {handle.path}")
        nbytes = min(nbytes, handle.size - handle.offset)
        if nbytes <= 0:
            return 0
        listener = self.prefetch_listener
        if listener is not None:
            # Notify before any timed step so staging of the next-k
            # window overlaps with this read's own service time.
            listener.on_demand_read(self.client_key, handle.path)
        rec = self.spans
        root = None
        if rec is not None:
            if self.tenant is None:
                root = rec.begin(
                    "client.read",
                    self.env.now,
                    client=self.node_id,
                    path=handle.path,
                    bytes=nbytes,
                )
            else:
                root = rec.begin(
                    "client.read",
                    self.env.now,
                    client=self.node_id,
                    path=handle.path,
                    bytes=nbytes,
                    tenant=self.tenant,
                )
        t0 = self.env.now
        yield self.env.timeout(self.spec.hvac.client_request_overhead)

        hvac = self.spec.hvac
        if self.pfs_only:
            # Admission degraded this job: the fleet cache is off-limits,
            # every read is a direct PFS transaction.  Still a *serviced*
            # read — just the slow path, and always counted degraded.
            fb = None
            if rec is not None:
                fb = rec.begin(
                    "pfs.fallback",
                    self.env.now,
                    parent=root,
                    path=handle.path,
                    bytes=handle.size,
                )
            yield from self.pfs.read_file(handle.path, handle.size, handle.client_node)
            if rec is not None:
                rec.end(fb, self.env.now)
            self._route_bytes(root, "pfs", handle.size)
            self._incr("client_pfs_only_reads")
            degraded = True
        elif hvac.stripe_large_files and handle.size > hvac.stripe_threshold:
            degraded = yield from self._read_striped(handle, root)
        else:
            hit, route, failures = yield from self._forward_read(
                handle.path, handle.size, handle.client_node, parent=root
            )
            degraded = failures > 0 or route == "pfs"
            self._route_bytes(root, route, handle.size)
            if hit is not None:
                self._incr("client_hits" if hit else "client_misses")
        self._cscope.histogram("read_seconds").add(self.env.now - t0)
        if degraded:
            self._incr("client_degraded_reads")
        if rec is not None:
            if degraded:
                rec.annotate(root, self.env.now, "degraded", 1)
            rec.end(root, self.env.now)
        handle.offset += nbytes
        return nbytes

    def _forward_read(
        self,
        path: str,
        size: int,
        client_node: int,
        parent: Optional[int] = None,
        max_retries: Optional[int] = None,
    ) -> Generator:
        """One forwarded read transaction (whole file or one segment).

        Returns ``(hit, route, failed_attempts)``: the server's hit flag
        (None when served by PFS fallback), which path delivered the
        bytes (``local`` / ``remote`` / ``pfs``), and how many attempts
        struck out along the way.  A bounded retry loop with backoff
        walks the detector-approved replicas; every retry path
        terminates in the PFS — a flapping server can cost at most
        ``rpc_max_retries`` strikes, never an unbounded recursion.
        ``max_retries`` caps the walk below the spec default (per-segment
        retry budgets).
        """
        hvac = self.spec.hvac
        rec = self.spans
        # Loop-invariant hoists: the retry walk re-reads these per
        # attempt otherwise (PERF104).
        env = self.env
        detector = self.detector
        failures = 0
        retries = max_retries if max_retries is not None else hvac.rpc_max_retries
        for attempt in range(retries):
            candidates = self._candidates(path)
            if not candidates:
                break
            sid = candidates[attempt % len(candidates)]
            server = self.servers[sid]
            try:
                # The server replies after its data mover has the bytes
                # and bulk-pushes them here; the deadline covers the
                # whole exchange (hung servers and lost replies look
                # identical: silence).  The parent span id rides in the
                # payload so the server's span tree links to ours.
                hit = yield from self.endpoint.call(
                    server.endpoint,
                    "read",
                    payload=(path, size, parent, self.tenant),
                    payload_bytes=len(path) + (24 if self.tenant is not None else 16),
                    timeout=hvac.rpc_timeout,
                    span=parent,
                    tenant=self.tenant,
                )
            except RPCTimeout:
                failures += 1
                detector.record_failure(sid)
                self._incr("client_rpc_timeouts")
                if rec is not None and parent is not None:
                    rec.annotate(parent, env.now, "strike", sid)
            except RPCError:
                failures += 1
                detector.record_failure(sid)
                self._incr("client_rpc_failures")
                if rec is not None and parent is not None:
                    rec.annotate(parent, env.now, "strike", sid)
            else:
                detector.record_success(sid)
                route = "local" if server.node_id == self.node_id else "remote"
                return hit, route, failures
            if attempt + 1 < retries:
                if not self._candidates(path):
                    # The whole replica set just went unroutable (all
                    # suspected/dead): the remaining backoff walk cannot
                    # reach anyone — degrade now instead of sleeping.
                    self._incr("client_retry_aborts")
                    break
                self._incr("client_retries")
                yield env.timeout(self._backoff(attempt))
        # Every approved replica failed (or none is approved): degrade
        # to a direct PFS read — slower, but the training run survives.
        self._incr("client_pfs_fallback")
        fb = None
        if rec is not None:
            fb = rec.begin(
                "pfs.fallback", self.env.now, parent=parent, path=path, bytes=size
            )
        yield from self.pfs.read_file(path, size, client_node)
        if rec is not None:
            rec.end(fb, self.env.now)
        return None, "pfs", failures

    def _segment(
        self,
        seg_path: str,
        length: int,
        client_node: int,
        root: Optional[int] = None,
    ) -> Generator:
        """One striped segment: forward, then account its own outcome.

        Segments are first-class in the accounting: a file that loses a
        single segment to a failed server is *partially* degraded, not a
        whole-file miss (see :meth:`_read_striped`).
        """
        rec = self.spans
        sp = None
        if rec is not None:
            sp = rec.begin(
                "client.segment",
                self.env.now,
                parent=root,
                path=seg_path,
                bytes=length,
            )
        budget = self.spec.hvac.segment_retry_budget
        hit, route, failures = yield from self._forward_read(
            seg_path,
            length,
            client_node,
            parent=sp if sp is not None else root,
            max_retries=budget if budget > 0 else None,
        )
        if hit is None:
            self._incr("client_seg_fallbacks")
        elif hit:
            self._incr("client_seg_hits")
        else:
            self._incr("client_seg_misses")
        self._route_bytes(root, route, length)
        if rec is not None:
            rec.annotate(sp, self.env.now, "route", route)
            rec.end(sp, self.env.now, status="ok" if hit is not None else "fallback")
        return hit, route, failures

    def _read_striped(self, handle: OpenFile, root: Optional[int] = None) -> Generator:
        """Fetch a large file as parallel segments from their homes.

        Hit accounting is per segment: all segments cached →
        ``client_hits``; some cached → ``client_partial_hits`` (the
        delivered bytes split across routes accordingly); none →
        ``client_misses``.  Returns whether any segment degraded.
        """
        hvac = self.spec.hvac
        seg = hvac.stripe_segment
        fetches = []
        offset = 0
        index = 0
        while offset < handle.size:
            length = min(seg, handle.size - offset)
            seg_path = f"{handle.path}#seg{index}"
            fetches.append(
                self.env.process(
                    self._segment(seg_path, length, handle.client_node, root),
                    name="hvac.seg",
                )
            )
            offset += length
            index += 1
        results = yield AllOf(self.env, fetches)
        outcomes = list(results.values())
        self._incr("client_striped_reads")
        n_hit = sum(1 for hit, _, _ in outcomes if hit)
        n_fallback = sum(1 for hit, _, _ in outcomes if hit is None)
        if n_hit == len(outcomes):
            self._incr("client_hits")
        elif n_hit > 0:
            self._incr("client_partial_hits")
        else:
            self._incr("client_misses")
        return n_fallback > 0 or any(failed > 0 for _, _, failed in outcomes)

    def close(self, handle: OpenFile) -> Generator:
        """Intercepted ``close``: out-of-band teardown RPC (fire & forget)."""
        if handle.closed:
            raise ValueError(f"double close of {handle.path}")
        handle.closed = True
        yield self.env.timeout(self.spec.hvac.client_request_overhead)
        candidates = self._candidates(handle.path)
        if candidates:
            # Out-of-band: the client does not wait for the ack.
            self.env.process(
                self._oob_close(candidates[0], handle.path), name="hvac.oob_close"
            )
        self._incr("client_closes")

    def _oob_close(self, sid: int, path: str) -> Generator:
        server = self.servers[sid]
        try:
            yield from self.endpoint.call(
                server.endpoint, "close", payload=path,
                timeout=self.spec.hvac.rpc_timeout,
            )
        except RPCError:
            # Teardown of a dying server is best-effort, but the silence
            # still counts as evidence against it.
            self.detector.record_failure(sid)
        else:
            self.detector.record_success(sid)
