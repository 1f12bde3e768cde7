"""Peer-to-peer replica repair after server recovery.

A recovered HVAC server restarts with a cold cache: without repair its
first epoch re-pays the PFS fetch for every file it homes (the paper's
§IV-E cost, and Hoard's motivation for background repopulation).  The
:class:`RepairManager` fixes that: when a server recovers it plans the
lost shard from the *base* placement (every file whose replica set
contains the server) and streams it back in the background —

* **from replica peers** when a live replica still caches the file: a
  cache-NVMe read on the peer plus a fabric transfer peer → recovered
  node, contending with epoch traffic on the same links;
* **from the PFS** when no replica survives (rf=1, or a correlated
  burst took the whole replica set down).

All repair flows share one :class:`~repro.cluster.RateLimiter`
(``HVACSpec.repair_bandwidth``), making the repair-bandwidth vs
epoch-interference trade-off a single knob.  While repair runs the
server self-reports ``recovering`` — remapped placement keeps its range
on the warm stand-ins — and on completion it bumps its incarnation and
rejoins as ``alive``.

A repair aborts cleanly if the server dies again mid-stream (the next
recovery starts a fresh one — generation-checked, so the two never
interleave).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.network import RateLimiter

__all__ = ["RepairManager", "RepairReport"]


@dataclass
class RepairReport:
    """Outcome of one repair stream (one recovery of one server)."""

    server_id: int
    started: float
    finished: float = 0.0
    n_files: int = 0
    bytes_from_peers: int = 0
    bytes_from_pfs: int = 0
    aborted: bool = False

    @property
    def seconds(self) -> float:
        return self.finished - self.started

    @property
    def total_bytes(self) -> int:
        return self.bytes_from_peers + self.bytes_from_pfs


class RepairManager:
    """Plans and runs background shard repair for one deployment."""

    def __init__(self, deployment, bandwidth: float = 0.0):
        self.dep = deployment
        self.env = deployment.env
        #: one shared pacer for every concurrent repair stream
        self.limiter = RateLimiter(self.env, bandwidth, name="repair")
        #: dataset manifest ``(path, size)`` — the authority on what a
        #: server *should* hold; attach_manifest() fills it
        self.manifest: list[tuple[str, int]] = []
        self.reports: list[RepairReport] = []
        #: recoveries seen this instant, started as one sorted batch
        self._pending: list = []
        self._starter_active = False
        self.metrics = self.env.metrics.scope("hvac.repair")

    @property
    def in_flight(self) -> int:
        """Repairs started and not yet finished or aborted."""
        count = self.metrics.counter
        return (
            count("repairs_started").value
            - count("repairs").value
            - count("repairs_aborted").value
        )

    def attach_manifest(self, files) -> None:
        """Register the dataset so PFS-sourced repair knows what a
        server with no surviving replica peer has lost."""
        self.manifest = [(path, int(size)) for path, size in files]

    # -- lifecycle ----------------------------------------------------------
    def on_recover(self, server) -> None:
        """Called by ``HVACServer.recover``: start the repair stream.

        Recoveries landing at the same instant (a burst restart) are
        collected and launched by one starter process in ``server_id``
        order.  Spawning each stream directly from its caller would make
        the first-throttle order on the shared limiter depend on nothing
        but heap insertion sequence — the exact class of bug the race
        sanitizer exists to flag.
        """
        self.metrics.counter("repairs_started").incr()
        self._pending.append(server)
        if not self._starter_active:
            self._starter_active = True
            self.env.process(self._start_pending(), name="repair.start")

    def _start_pending(self):
        yield 0.0
        batch, self._pending = self._pending, []
        self._starter_active = False
        for server in sorted(batch, key=lambda s: s.server_id):
            self.env.process(
                self._repair(server), name=f"repair.s{server.server_id}"
            )

    # -- planning -----------------------------------------------------------
    def _plan(self, server) -> list[tuple[str, int, object]]:
        """``(path, size, source_server_or_None)`` for every lost file.

        Peer-sourced entries come first (cheap, replica-local); manifest
        leftovers fall back to the PFS.  Planning walks servers and
        cache contents in sorted order, so the stream is deterministic.
        """
        sid = server.server_id
        placement = self.dep.placement
        plan: list[tuple[str, int, object]] = []
        planned: set[str] = set()
        for peer in self.dep.servers:
            if peer.server_id == sid or not peer.alive:
                continue
            for path, size in peer.cache.contents():
                if path in planned or server.cache.contains(path):
                    continue
                if sid in placement.replicas(path):
                    plan.append((path, size, peer))
                    planned.add(path)
        for path, size in self.manifest:
            if path in planned or server.cache.contains(path):
                continue
            if sid in placement.replicas(path):
                plan.append((path, size, None))
                planned.add(path)
        return plan

    # -- the repair stream ---------------------------------------------------
    def _repair(self, server):
        report = RepairReport(server_id=server.server_id, started=self.env.now)
        generation = server.incarnation
        fabric = self.dep.allocation.fabric
        aborted = False
        try:
            for path, size, peer in self._plan(server):
                if not server.alive or server.incarnation != generation:
                    aborted = True
                    break
                if server.cache.contains(path):
                    continue
                yield from self.limiter.throttle(size)
                if not server.alive or server.incarnation != generation:
                    aborted = True
                    break
                from_peer = False
                if peer is not None and peer.alive and peer.cache.contains(path):
                    # Replica-sourced: occupy the peer's NVMe for the
                    # read, then cross the real fabric — repair traffic
                    # contends with epoch reads on both.
                    yield from peer.cache.read(path)
                    from_peer = yield from fabric.transfer(
                        peer.node_id, server.node_id, size
                    )
                if not from_peer:
                    yield from self.dep.pfs.read_file(path, size, server.node_id)
                if not server.alive or server.incarnation != generation:
                    aborted = True
                    break
                yield from server.cache.insert(path, size)
                report.n_files += 1
                if from_peer:
                    report.bytes_from_peers += size
                    self.metrics.counter("bytes_from_peers").incr(size)
                else:
                    report.bytes_from_pfs += size
                    self.metrics.counter("bytes_from_pfs").incr(size)
        finally:
            report.aborted = aborted
            report.finished = self.env.now
            # race: waive RACE201 -- append-only report log; kernel orders completions
            self.reports.append(report)
            self.metrics.counter("repairs_aborted" if aborted else "repairs").incr()
        if not aborted:
            server.repair_complete()
