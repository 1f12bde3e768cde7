"""The HVAC server process (paper §III-C/D).

Each server instance:

* exposes a Mercury-like RPC endpoint on its compute node;
* owns a *shared FIFO queue* of forwarded file I/O operations, drained
  by a dedicated **data-mover thread** (one per instance — the paper's
  serialization point, and the reason multiple instances per node reduce
  overhead, Fig 9b);
* on a miss, copies the file from the PFS to node-local storage
  (``fs::copy(src, dst)`` in the prototype) and then serves it; on a
  hit, reads node-local NVMe directly, bypassing the PFS;
* deduplicates concurrent first-reads of the same file (the prototype's
  mutex on the shared queue that "avoids repeated copying").

Servers never talk to each other — each is "effectively unaware" of its
peers; all coordination is the client-side hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from ..cluster import Fabric
from ..cluster.nvme import NVMeDevice
from ..cluster.specs import ClusterSpec
from ..rpc import RPCEndpoint, RPCError, RPCTimeout
from ..simcore import (
    AllOf,
    Environment,
    Event,
    RandomStreams,
    Resource,
    Store,
)
from ..storage.base import FileBackend
from .cache import CacheManager, make_policy

__all__ = ["HVACServer", "ReadRequest"]

RACE_CELLS = (
    ("s<id>.inflight:<path>", ("_inflight",),
     "per-path fetch-dedup slot decides which request fetches and which wait"),
)


@dataclass(slots=True)
class ReadRequest:
    """One forwarded <open, read> destined for this server's data mover.

    Slotted: every intercepted read materializes one of these, so at
    epochs-at-scale the mover queue churns through them per event
    (PERF101)."""

    path: str
    size: int
    client_node: int
    #: tenant tag the client forwarded (None = untagged / single-job)
    tenant: object = None
    done: Event = field(repr=False, default=None)  # type: ignore[assignment]
    #: filled by the mover: was this served from cache?
    hit: bool = False
    #: for hits: the in-progress NVMe read the responder overlaps with
    #: its bulk transfer (Mercury pipelines chunks, so device read and
    #: wire transfer proceed concurrently)
    read_proc: object = field(repr=False, default=None)
    #: server-side ``server.read`` span id this request belongs to (None
    #: when no recorder is attached)
    span: object = field(repr=False, default=None)


class HVACServer:
    """One HVAC server instance on one compute node."""

    def __init__(
        self,
        env: Environment,
        server_id: int,
        node_id: int,
        device: NVMeDevice,
        pfs: FileBackend,
        fabric: Fabric,
        spec: ClusterSpec,
        cache_capacity: int,
        rand: RandomStreams,
    ):
        self.env = env
        self.server_id = server_id
        self.node_id = node_id
        self.pfs = pfs
        self.spec = spec
        self.metrics = env.metrics
        #: the run's :class:`~repro.obs.SpanRecorder`, or None
        self.spans = env.spans
        # Deployment-wide counters (``hvac.cache_hits`` …); per-server
        # views come from the spans (``repro.obs.slo``).
        self._hvac = self.metrics.scope("hvac")
        self.endpoint = RPCEndpoint(
            env,
            fabric,
            node_id,
            name=f"hvac-s{server_id}@n{node_id}",
        )
        self.cache = CacheManager(
            env,
            device,
            capacity_bytes=cache_capacity,
            # Eviction draws come from this server's own named stream of
            # the experiment tree, so victim choices replay bit-for-bit
            # and never perturb another component's draw sequence.
            policy=make_policy(spec.hvac.eviction_policy, rand.stream("evict")),
            name=f"hvac{server_id}.cache",
            compression_ratio=spec.hvac.compression_ratio,
            decompress_cost_per_byte=spec.hvac.decompress_cost_per_byte,
        )
        # Per-request process names, built once: the mover spawns a
        # service/bulk/NVMe process per forwarded read, and rebuilding
        # the label each time is pure hot-path allocation (PERF103).
        self._svc_name = f"hvac{server_id}.svc"
        self._bulk_name = f"hvac{server_id}.bulk"
        self._nvme_name = f"hvac{server_id}.nvme"
        self._announce_name = f"hvac{server_id}.announce"
        # The dedicated data-mover thread: a serial dispatch resource.
        self._mover = Resource(env, capacity=1)
        # Async copy slots the mover can keep in flight against PFS/NVMe.
        self._copy_slots = Resource(env, capacity=spec.hvac.data_mover_concurrency)
        # Shared FIFO queue of forwarded operations.
        self.queue: Store = Store(env)
        # In-flight fetch dedup: path -> completion event ("mutex" in the paper).
        self._inflight: dict[str, Event] = {}
        # -- membership (optional, see enable_membership) -----------------
        #: bumped on every recover/repair-complete; a higher incarnation
        #: beats any stale accusation in the gossip lattice
        self.incarnation = 0
        #: the server's own authoritative state: alive | recovering
        self.member_state = "alive"
        #: this server's bulletin-board MembershipView (None = disabled)
        self.board = None
        #: RepairManager streaming the shard back after recovery
        self._repair = None
        #: peer server table for rejoin announcements (set by
        #: enable_membership; servers otherwise never talk to each other)
        self._peers = None
        self.endpoint.register("read", self._handle_read)
        self.endpoint.register("close", self._handle_close)
        self.endpoint.register("ping", self._handle_ping)
        env.process(self._drain(), name=f"hvac{server_id}.mover")

    # -- lifecycle --------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.endpoint.alive

    def fail(self) -> None:
        """Simulate node-local NVMe / server-process failure (§III-H)."""
        self.endpoint.shutdown()
        self._flush_inflight()

    def hang(self) -> None:
        """Gray failure: the server process wedges.  Requests still land
        on its endpoint but no reply is ever produced; clients can only
        find out through their own deadlines."""
        self.endpoint.hang()

    def unhang(self) -> None:
        self.endpoint.unhang()

    @property
    def hung(self) -> bool:
        return self.endpoint.hung

    def recover(self) -> None:
        """Restart after failure with a cold cache.

        With membership enabled the restart bumps the incarnation (so
        the refutation beats every circulating death certificate) and,
        when a repair manager is attached, comes back ``recovering`` —
        stand-ins keep its hash range until the shard is streamed back.
        """
        self.cache.purge()
        # Wiping the dedup table is a write to every live inflight cell:
        # a same-timestamp reader about to join a wiped entry would wait
        # on a fetch that no longer exists.
        for path in self._inflight:
            self.env.note_access(self._inflight_cell(path), "w", tag=("wipe", path))
        self._inflight.clear()
        self.endpoint.restart()
        if self.board is not None:
            self.incarnation += 1
            self.member_state = "recovering" if self._repair is not None else "alive"
            self.board.self_report(self.server_id, self.incarnation, self.member_state)
            if self._repair is not None:
                self._repair.on_recover(self)
            self._spawn_announce()

    def repair_complete(self) -> None:
        """The repair stream finished: rejoin placement as fully alive."""
        if self.board is None:
            return
        self.incarnation += 1
        self.member_state = "alive"
        self.board.self_report(self.server_id, self.incarnation, self.member_state)
        self._spawn_announce()

    def _spawn_announce(self) -> None:
        if self._peers is not None:
            self.env.process(self._announce(), name=self._announce_name)

    def _announce(self) -> Generator:
        """SWIM rejoin announcement: ping a couple of peer servers our
        own board believes are up.  The request's piggybacked digest
        carries the fresh self-report; the peers' reply digests then
        spread it to every client on the ordinary read path — without
        this, a recovered server (which receives no requests while
        everyone thinks it dead) could only be rediscovered by the
        gossip agents' backed-off recovery probes."""
        from ..membership.view import DEAD

        n = len(self._peers)
        told = 0
        for k in range(1, n):
            peer = self._peers[(self.server_id + k) % n]
            if self.board.state_of(peer.server_id) == DEAD:
                continue
            try:
                yield from self.endpoint.call(
                    peer.endpoint,
                    "ping",
                    payload=None,
                    payload_bytes=0,
                    timeout=self.spec.hvac.rpc_timeout,
                )
            except (RPCError, RPCTimeout):
                continue
            told += 1
            if told >= 2:
                return

    # -- membership -------------------------------------------------------
    def enable_membership(self, board, repair=None, peers=None) -> None:
        """Attach a bulletin-board view + optional repair manager, and
        wire membership digests onto every RPC this endpoint touches.
        ``peers`` (the deployment's server table) enables the rejoin
        announcement after recovery."""
        self.board = board
        self._repair = repair
        self._peers = peers
        board.self_report(self.server_id, self.incarnation, self.member_state)
        self.endpoint.digest_provider = board.piggyback
        self.endpoint.digest_sink = self._absorb_digest

    def _absorb_digest(self, digest: tuple, src: int) -> None:
        """Fold in a piggybacked digest.  SWIM refutation: if it accuses
        *us* of a state worse than our own at our current (or a later)
        incarnation, out-bid it — the bump rides back on this very
        reply's digest."""
        board = self.board
        board.absorb(digest, src)
        if board.outranks(self.server_id, self.incarnation, self.member_state):
            self.incarnation = board.incarnation(self.server_id) + 1
            board.self_report(self.server_id, self.incarnation, self.member_state)

    def _inflight_cell(self, path: str) -> str:
        """Race-sanitizer cell name for one dedup slot."""
        return f"s{self.server_id}.inflight:{path}"  # perf: waive PERF103 -- callers guard on env.noting

    def _flush_inflight(self) -> None:
        """Fail every dedup waiter parked on an in-flight fetch: the
        fetch's result dies with the server, and a waiter left pending
        would hang its client forever (it can never be re-triggered)."""
        observed = self.env.noting
        for path, pending in sorted(self._inflight.items()):
            if observed:
                self.env.note_access(self._inflight_cell(path), "w")
            if not pending.triggered:
                # Pre-defuse: with zero waiters the kernel must not treat
                # the failure as unhandled; real waiters still get the
                # exception thrown in.
                pending.fail(RPCError("server failed mid-fetch")).defused()
        self._inflight.clear()

    def teardown(self) -> None:
        """Job-end lifecycle: purge the cached dataset from node-local storage."""
        self.cache.purge()
        self.endpoint.shutdown()  # a torn-down server serves nothing
        self._flush_inflight()

    # -- telemetry helpers -------------------------------------------------
    def _incr(self, name: str, n: int = 1) -> None:
        """Bump the deployment-wide ``hvac.<name>`` counter."""
        self._hvac.counter(name).incr(n)

    # -- RPC handlers ----------------------------------------------------
    def _handle_read(self, payload: tuple, src: int) -> Generator:
        """Enqueue on the shared FIFO; wait for the data mover; bulk-push.

        The payload is ``(path, size, parent, tenant)``: the caller's
        span id (None untraced) links the server-side ``server.read``
        span into the client's causal tree, and the tenant tag (None
        single-tenant) is threaded to the cache so the tenancy arbiter
        can attribute the insert.
        """
        path, size, parent, tenant = payload
        rec = self.spans
        sid = None
        if rec is not None:
            sid = rec.begin(
                "server.read",
                self.env.now,
                parent=parent,
                tenant=tenant,
                server=self.server_id,
                path=path,
                bytes=size,
            )
        req = ReadRequest(
            path=path,
            size=size,
            client_node=src,
            tenant=tenant,
            done=self.env.event(),
            span=sid,
        )
        try:
            yield self.queue.put(req)
            yield req.done
        except Exception:
            if rec is not None:
                rec.end(sid, self.env.now, status="error")
            raise
        # Bulk transfer of the file contents to the requesting client.
        # Mercury moves the buffer in pipelined chunks, so for cache
        # hits the NVMe read and the wire transfer overlap.
        if rec is not None:
            rec.annotate(sid, self.env.now, "hit", 1 if req.hit else 0)
        bsp = None
        if rec is not None:
            bsp = rec.begin(
                "server.bulk", self.env.now, parent=sid, dst=src, bytes=size
            )
        bulk = self.env.process(self._bulk_to(src, size, bsp), name=self._bulk_name)
        waits = [bulk]
        if req.read_proc is not None:
            waits.append(req.read_proc)
        yield AllOf(self.env, waits)
        self._incr("bytes_served", size)
        if rec is not None:
            rec.end(sid, self.env.now)
        return req.hit

    def _bulk_to(self, dst: int, size: int, span=None) -> Generator:
        yield from self.endpoint.bulk_push(dst, size)
        if self.spans is not None:
            self.spans.end(span, self.env.now)

    def _handle_close(self, payload: str, src: int) -> Generator:
        """Out-of-band teardown signal for a finished file (step ⑧)."""
        yield 2e-6
        self._incr("closes")
        return None

    def _handle_ping(self, payload, src: int) -> Generator:
        """Liveness probe.  The interesting cargo is the piggybacked
        reply digest (carrying this server's self-report); the return
        value is informational."""
        yield 2e-6
        self._incr("pings")
        return (self.server_id, self.incarnation, self.member_state)

    # -- data mover -------------------------------------------------------
    def _drain(self) -> Generator:
        """The dedicated data-mover thread's main loop."""
        overhead = self.spec.hvac.server_request_overhead
        while True:
            req: ReadRequest = yield self.queue.get()
            # Serial dispatch cost — the instance's software path length.
            with (yield self._mover):
                yield overhead
            # Service proceeds asynchronously; the mover loops for the
            # next request immediately (async copy engine).
            self.env.process(self._service(req), name=self._svc_name)

    def _serve_hit(self, req: ReadRequest) -> Generator:
        """Start the NVMe read and release the responder immediately —
        the read handle rides along in ``req.read_proc`` so the bulk
        transfer overlaps with it (pipelined chunks)."""
        req.hit = True
        self._incr("cache_hits")
        with (yield self._copy_slots):
            rec = self.spans
            nsp = None
            if rec is not None:
                nsp = rec.begin(
                    "server.nvme", self.env.now, parent=req.span, bytes=req.size
                )
            req.read_proc = self.env.process(
                self.cache.read(req.path), name=self._nvme_name
            )
            req.done.succeed()
            yield req.read_proc
            if rec is not None:
                rec.end(nsp, self.env.now)

    def _service(self, req: ReadRequest) -> Generator:
        try:
            if self.cache.contains(req.path):
                yield from self._serve_hit(req)
                return

            self._incr("cache_misses")
            # Per-path race-sanitizer cell: the dedup slot decides which
            # request becomes the fetcher and which become waiters.  The
            # cell name is only materialized while an observer takes notes
            # (PERF103 — this runs once per cache miss).
            observed = self.env.noting
            if observed:
                self.env.note_access(self._inflight_cell(req.path), "r")
            pending = self._inflight.get(req.path)
            if pending is not None:
                # Another client is already copying this file in: wait on
                # its completion instead of re-fetching (shared-queue mutex).
                self._incr("dedup_waits")
                yield pending
                if self.cache.contains(req.path):
                    yield from self._serve_hit(req)
                    return
                # Fetch completed but was refused by the cache policy:
                # fall through to PFS passthrough.
                yield from self._passthrough(req)
                return

            fetch_done = self.env.event()
            if observed:
                self.env.note_access(self._inflight_cell(req.path), "w")
            self._inflight[req.path] = fetch_done
            try:
                with (yield self._copy_slots):
                    rec = self.spans
                    fsp = None
                    if rec is not None:
                        fsp = rec.begin(
                            "server.pfs_fetch",
                            self.env.now,
                            parent=req.span,
                            bytes=req.size,
                        )
                    # PFS → memory buffer, issued from this server's node.
                    yield from self.pfs.read_file(req.path, req.size, self.node_id)
                    if rec is not None:
                        rec.end(fsp, self.env.now)
                # First read serves straight from the fetched buffer; the
                # fs::copy to node-local storage completes asynchronously
                # (the NVMe write is off the serve path but still
                # occupies the device).
                req.done.succeed()
                yield from self.cache.insert(req.path, req.size, tenant=req.tenant)
            finally:
                # fail()/recover() may already have flushed the dict and
                # failed the event while this fetch was in flight.
                if observed:
                    self.env.note_access(self._inflight_cell(req.path), "w")
                self._inflight.pop(req.path, None)
                if not fetch_done.triggered:
                    fetch_done.succeed()
        except Exception as err:  # noqa: BLE001 — propagate to the RPC caller
            if not req.done.triggered:
                req.done.fail(err)
            else:
                raise

    def _passthrough(self, req: ReadRequest) -> Generator:
        """Serve from PFS without caching (file refused by policy/capacity)."""
        self._incr("passthrough")
        with (yield self._copy_slots):
            yield from self.pfs.read_file(req.path, req.size, self.node_id)
        req.done.succeed()
