"""The look-ahead scheduler: stage exactly the next-``k`` planned files.

One worker process per involved server walks that server's slice of the
global plan (every client's entries homed there, interleaved in plan
order) and keeps each client's *staging frontier* at most
``prefetch_lookahead`` files ahead of its *demand cursor* — the NoPFS
discipline: prefetch just-in-time in access order, never the whole
dataset at once (that is the reactive baseline,
:class:`~repro.core.prefetch.CachePrefetcher`).

Staged reads are ordinary :class:`~repro.core.server.ReadRequest`s on
the server's shared FIFO, so they pay the same data-mover dispatch as
demand traffic and dedup against the server's ``_inflight`` table —
a demand read arriving for a file whose staging is in flight waits on
the copy instead of re-fetching, and vice versa.

Shared-state discipline (race sanitizer):

* each server's staging queue head and credit counter are one named
  cell, ``prefetch.queue.s<id>``, written *only by that server's
  worker process* — single-writer by construction, so real runs are
  sanitizer-clean while an unsynchronized caller (tests) is caught;
* demand notifications only advance the notifying client's own
  watermark and trigger parked worker wakeups (causally chained
  through the kernel's zero-delay parent links), never the cells.

Fault degradation: a dead home server, or a staged fetch that dies with
the server, invalidates that server's slice of the plan — its worker
stops and the counter ``prefetch.invalidations`` records it; demand
reads simply continue on the reactive miss path (client failover,
PFS fallback), so a fault costs staging coverage, never correctness.
"""

from __future__ import annotations

from typing import Generator

from ..core.deployment import HVACDeployment
from ..core.server import HVACServer, ReadRequest
from ..rpc import RPCError, RPCTimeout
from ..simcore import Environment, cell_name
from .planner import ClairvoyantPlanner

__all__ = ["LookaheadScheduler"]

RACE_CELLS = (
    ("prefetch.queue.s<id>", ("_credits",),
     "one staging worker's credit pool; single-writer by design, celled "
     "so a second writer is caught"),
)


class LookaheadScheduler:
    """Clairvoyant staging of a planner's schedules onto a deployment."""

    def __init__(
        self,
        deployment: HVACDeployment,
        planner: ClairvoyantPlanner,
    ):
        hvac = deployment.spec.hvac
        self.deployment = deployment
        self.env: Environment = deployment.env
        self.lookahead = hvac.prefetch_lookahead
        self.outstanding = hvac.prefetch_outstanding
        keys = planner.keys
        #: per-client demand cursor: how many planned reads have been issued
        self._consumed: dict[object, int] = {key: 0 for key in keys}
        #: clients whose demand stream left the plan (frozen, not fatal)
        self._diverged: set[object] = set()
        self._entries: dict[object, tuple[tuple[str, int], ...]] = {
            key: planner.schedule(key).entries for key in keys
        }
        # Partition every schedule by home server, interleaved in global
        # plan order (plan index first, then client order) — computable
        # from the shared placement alone, in keeping with HVAC's
        # no-metadata philosophy.
        key_rank = {key: i for i, key in enumerate(keys)}
        placement = deployment.placement
        per_server: dict[int, list[tuple[int, int, object, str, int]]] = {}
        for key in keys:
            for plan_idx, (path, size) in enumerate(self._entries[key]):
                home = placement.home(path)
                per_server.setdefault(home, []).append(
                    (plan_idx, key_rank[key], key, path, size)
                )
        for rows in per_server.values():
            rows.sort()
        self._per_server = {sid: per_server[sid] for sid in sorted(per_server)}
        self._wake_order = tuple(self._per_server)
        # Hoisted per-server cell and process names: staging runs per
        # read, so labels must not be rebuilt per event (PERF103).
        self._cells = {
            sid: cell_name("prefetch.queue", "s", sid) for sid in self._per_server
        }
        self._watch_names = {
            sid: f"prefetch.watch.s{sid}" for sid in self._per_server
        }
        #: remaining outstanding-request credits per server
        self._credits: dict[int, int] = {
            sid: self.outstanding for sid in self._per_server
        }
        self._wakeups: dict[int, object] = {}
        self._stopped = False
        self._started = False
        #: servers whose plan slice a fault invalidated
        self.invalidated: set[int] = set()
        scope = deployment.metrics.scope("prefetch")
        self._m_staged = scope.counter("staged_files")
        self._m_staged_bytes = scope.counter("staged_bytes")
        self._m_skipped = scope.counter("skipped")
        self._m_late = scope.counter("late")
        self._m_invalidations = scope.counter("invalidations")
        self._m_divergences = scope.counter("divergences")
        self._m_resumes = scope.counter("resumes")
        #: live worker process per server (guards resume double-spawn)
        self._workers: dict[int, object] = {}

    def start(self) -> None:
        """Spawn one staging worker per involved server."""
        if self._started:
            raise RuntimeError("scheduler already started")
        self._started = True
        for sid, entries in self._per_server.items():
            self._workers[sid] = self.env.process(
                self._worker(self.deployment.servers[sid], entries),
                name=f"prefetch.stage.s{sid}",
            )

    def stop(self) -> None:
        """End staging: parked workers drain and exit."""
        self._stopped = True
        self._wake_all()

    # -- demand notifications ----------------------------------------------
    def on_demand_read(self, key, path: str) -> None:
        """A client issued its next planned read: advance its cursor.

        Called synchronously from the client's read path (never yields).
        An off-plan path freezes that client's window — the plan stays
        valid for everyone else, and the reader continues reactively.
        """
        consumed = self._consumed.get(key)
        if consumed is None or key in self._diverged:
            return
        entries = self._entries[key]
        if consumed < len(entries) and entries[consumed][0] != path:
            self._diverged.add(key)
            self._m_divergences.incr()
            return
        self._consumed[key] = consumed + 1
        self._wake_all()

    def _wake_all(self) -> None:
        wakeups = self._wakeups
        for sid in self._wake_order:
            ev = wakeups.get(sid)
            if ev is not None:
                wakeups[sid] = None
                ev.succeed()

    # -- credit accounting (the per-server sanitizer cell) -------------------
    def _take_credit(self, sid: int) -> None:
        self.env.note_access(self._cells[sid], "w")
        self._credits[sid] -= 1

    def _release_credit(self, sid: int) -> None:
        self.env.note_access(self._cells[sid], "w")
        self._credits[sid] += 1

    def _invalidate(self, sid: int) -> None:
        if sid not in self.invalidated:
            # race: waive RACE201 -- monotone idempotent insert; writers converge
            self.invalidated.add(sid)
            self._m_invalidations.incr()

    def on_server_recover(self, server: HVACServer) -> None:
        """A failed home server came back: re-arm its plan slice.

        The fresh worker walks the full slice again; entries whose
        demand read already passed fall to the late-skip, so staging
        restarts exactly at the demand frontier — re-warming the wiped
        cache ahead of the readers instead of leaving them on the
        reactive miss path for the rest of the job.
        """
        sid = server.server_id
        if self._stopped or not self._started:
            return
        if sid not in self.invalidated or sid not in self._per_server:
            return
        worker = self._workers.get(sid)
        if worker is not None and worker.is_alive:
            return  # old worker has not observed the fault yet
        self.invalidated.discard(sid)
        # Reset the credit pool the dead worker abandoned (its window
        # never tail-drained).  No live writer exists for this cell —
        # the old worker is gone and the new one has not run yet.
        self.env.note_access(self._cells[sid], "w")
        self._credits[sid] = self.outstanding
        self._m_resumes.incr()
        self._workers[sid] = self.env.process(
            self._worker(server, self._per_server[sid]),
            name=f"prefetch.stage.s{sid}",
        )

    # -- staging -----------------------------------------------------------
    def _worker(self, server: HVACServer, entries) -> Generator:
        """Stage this server's plan slice, ``outstanding`` at a time."""
        env = self.env
        sid = server.server_id
        cell = self._cells[sid]
        consumed = self._consumed
        lookahead = self.lookahead
        window: list = []
        for plan_idx, _rank, key, path, size in entries:
            # Admission: wait until the entry enters its client's
            # look-ahead window (or the client's stream froze/ended).
            while (
                not self._stopped
                and key not in self._diverged
                and plan_idx >= consumed[key] + lookahead
            ):
                ev = env.event()
                self._wakeups[sid] = ev
                yield ev
            if self._stopped:
                break
            if key in self._diverged:
                continue
            if plan_idx < consumed[key]:
                # Demand already passed this entry (the miss path
                # fetched it); staging it now is pure waste — skip and
                # catch up to the frontier.
                self._m_late.incr()
                continue
            env.note_access(cell, "w")  # staging-queue head advances
            if not server.alive:
                self._invalidate(sid)
                return
            if self._credits[sid] <= 0:
                # Oldest staged fetch must land before the next goes out.
                yield window.pop(0)
                self._release_credit(sid)
                # Give up the turn: a demand read dispatched at this
                # instant reaches the FIFO ahead of the next staged put.
                yield 0.0
                if not server.alive:
                    self._invalidate(sid)
                    return
            if server.cache.contains(path):
                # Already resident: promote it to most-recently-used
                # instead of re-staging — without the touch,
                # interleaved staging for other clients can evict a
                # planned file in the gap between its staging and its
                # demand read.
                server.cache.touch(path)
                self._m_skipped.incr()
                continue
            self._take_credit(sid)
            req = ReadRequest(
                path=path,
                size=size,
                client_node=server.node_id,
                done=env.event(),
            )
            yield server.queue.put(req)
            self._m_staged.incr()
            self._m_staged_bytes.incr(size)
            window.append(
                env.process(self._watch(sid, req.done), name=self._watch_names[sid])
            )
        # Drain the tail window so every staged fetch is accounted.
        while window:
            yield window.pop(0)
            self._release_credit(sid)

    def _watch(self, sid: int, done) -> Generator:
        """Absorb one staged fetch's outcome (a staged read has no RPC
        caller to propagate into — a fetch dying with its server must
        invalidate the plan slice, not crash the kernel)."""
        try:
            yield done
        except (RPCError, RPCTimeout):
            self._invalidate(sid)
