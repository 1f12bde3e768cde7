"""Cache pre-population — the paper's named future work.

§IV-C: *"Our future work will investigate utilizing prefetching
techniques to pre-populate the HVAC cache and reduce the performance
overhead of epoch-1."*

:class:`CachePrefetcher` implements the natural design: at job start,
every server walks the list of files it *homes* (computable locally
from the shared placement function — no coordination, in keeping with
HVAC's no-metadata philosophy) and pulls them from the PFS through its
normal data-mover path.  Demand reads that arrive for a file whose
prefetch is in flight dedup against it via the server's existing
in-flight table, so prefetching composes with epoch-1 instead of racing
it.

``HVACSpec.prefetch_outstanding`` — the window the clairvoyant
``LookaheadScheduler`` also holds — throttles each server's prefetch
stream so demand requests queued behind it on the shared FIFO are not
starved.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from ..rpc import RPCError, RPCTimeout
from ..simcore import AllOf, Environment, Event, Process
from .deployment import HVACDeployment
from .server import HVACServer, ReadRequest

__all__ = ["CachePrefetcher"]


class CachePrefetcher:
    """Pre-populates an HVAC deployment's caches from the PFS."""

    def __init__(
        self,
        deployment: HVACDeployment,
        paths: Sequence[str],
        sizes: Sequence[int],
    ):
        if len(paths) != len(sizes):
            raise ValueError("paths and sizes must have equal length")
        self.deployment = deployment
        self.env: Environment = deployment.env
        self.outstanding = deployment.spec.hvac.prefetch_outstanding
        # Partition the file list by home server — each server's worker
        # computes this from the placement alone (metadata-free).
        self._per_server: dict[int, list[tuple[str, int]]] = {}
        placement = deployment.placement
        for path, size in zip(paths, sizes):
            home = placement.home(path)
            self._per_server.setdefault(home, []).append((path, int(size)))
        self._proc: Optional[Process] = None
        scope = deployment.metrics.scope("prefetch")
        self._m_staged = scope.counter("staged_files")
        self._m_staged_bytes = scope.counter("staged_bytes")

    # -- driving -----------------------------------------------------------
    def start(self) -> Process:
        """Launch prefetch workers on every involved server."""
        if self._proc is not None:
            raise RuntimeError("prefetcher already started")
        self._proc = self.env.process(self._run(), name="hvac.prefetch")
        return self._proc

    @property
    def done(self) -> bool:
        return self._proc is not None and not self._proc.is_alive

    def _run(self) -> Generator:
        workers = [
            self.env.process(
                self._server_worker(self.deployment.servers[sid], files),
                name=f"hvac.prefetch.s{sid}",
            )
            for sid, files in self._per_server.items()
        ]
        yield AllOf(self.env, workers)

    def _server_worker(
        self, server: HVACServer, files: list[tuple[str, int]]
    ) -> Generator:
        """Issue this server's homed files through its data-mover FIFO,
        ``prefetch_outstanding`` at a time (a sliding window, not batch
        drain: the old drain-all-then-refill loop re-enqueued a full
        wave at the completion instant, so a demand read landing at
        that same instant was ordered behind it by heap-insertion
        accident)."""
        outstanding: list[Event] = []
        for path, size in files:
            if len(outstanding) >= self.outstanding:
                try:
                    yield outstanding.pop(0)
                except (RPCError, RPCTimeout):
                    # The server died mid-fetch; abandon its slice — a
                    # prefetch has no caller to propagate into, and the
                    # demand path degrades on its own.
                    return
                # Give up the turn before reusing the freed slot: any
                # demand read dispatched at this instant reaches the
                # FIFO ahead of the next prefetch put, making the
                # ordering causal instead of accidental.
                yield 0.0
            if not server.alive:
                return
            if server.cache.contains(path):
                continue  # demand traffic beat us to it
            req = ReadRequest(
                path=path,
                size=size,
                client_node=server.node_id,
                done=self.env.event(),
            )
            yield server.queue.put(req)
            outstanding.append(req.done)
            self._m_staged.incr()
            self._m_staged_bytes.incr(size)
        while outstanding:
            try:
                yield outstanding.pop(0)
            except (RPCError, RPCTimeout):
                return
