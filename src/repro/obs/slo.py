"""SLO aggregation: spans → per-entity degradation windows.

Rolls the span timeline (:mod:`repro.obs.spans`) into per-client,
per-server and per-tenant SLO windows — fixed-width sim-time buckets each carrying

* read-latency percentiles (p50 / p95 / p99),
* the **degraded-read fraction** (reads that needed a retry, hit a
  suspected server, or fell back to the PFS), and
* **bytes by path**: NVMe-local / remote-RPC / PFS-fallback.

Window semantics: a read belongs to the window its span *ends* in
(completion time is what the trainer experiences); windows are
half-open ``[t0, t1)`` and aligned to ``origin`` so two runs of the
same scenario (e.g. fault vs no-fault) bucket identically and stay
comparable side by side.

Span conventions consumed here (produced by ``repro.core`` + ``rpc``):

* ``client.read`` — root span per intercepted read; ``attrs['client']``;
  byte routing annotated as ``bytes:local`` / ``bytes:remote`` /
  ``bytes:pfs``; ``degraded`` annotated when any retry/fallback occurred.
* ``server.read`` — per forwarded request on the serving instance;
  ``attrs['server']``, ``attrs['bytes']``; ``hit`` annotation 0/1.

Clairvoyant staging (:mod:`repro.prefetch`) emits **no spans of its
own**: staged fetches ride the server FIFO below the RPC layer, so
their effect shows up here only as demand reads turning into
``bytes:local`` hits — which is what lets ``repro prefetch`` compare
modes on identical window grids without changing the span schema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .spans import Span, SpanRecorder

__all__ = ["SLOWindow", "EntitySLO", "SLOReport", "bucket_times", "compute_slo"]

#: byte-routing annotation keys, in dashboard display order
ROUTES = ("local", "remote", "pfs")


@dataclass
class SLOWindow:
    """One ``[t0, t1)`` bucket of reads for one entity."""

    t0: float
    t1: float
    n_reads: int = 0
    p50: float = float("nan")
    p95: float = float("nan")
    p99: float = float("nan")
    degraded: int = 0
    bytes_by_path: dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in ROUTES}
    )

    @property
    def degraded_fraction(self) -> float:
        return self.degraded / self.n_reads if self.n_reads else 0.0

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_path[r] for r in ROUTES)


@dataclass
class EntitySLO:
    """Aggregate + windowed SLO view for one client/server (or totals)."""

    entity: str
    windows: list[SLOWindow] = field(default_factory=list)
    n_reads: int = 0
    p50: float = float("nan")
    p95: float = float("nan")
    p99: float = float("nan")
    degraded: int = 0
    bytes_by_path: dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in ROUTES}
    )

    @property
    def degraded_fraction(self) -> float:
        return self.degraded / self.n_reads if self.n_reads else 0.0

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_path[r] for r in ROUTES)


@dataclass
class SLOReport:
    """The rolled-up SLO view one scenario run produces."""

    window: float
    t0: float
    t1: float
    clients: dict[int, EntitySLO] = field(default_factory=dict)
    servers: dict[int, EntitySLO] = field(default_factory=dict)
    #: per-tenant rollups (multi-tenant fleets only; empty otherwise)
    tenants: dict[int, EntitySLO] = field(default_factory=dict)
    totals: EntitySLO = field(default_factory=lambda: EntitySLO("total"))


def _percentiles(latencies: list[float]) -> tuple[float, float, float]:
    if not latencies:
        return (float("nan"),) * 3
    arr = np.asarray(latencies, dtype=float)
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return float(p50), float(p95), float(p99)


def _read_facts(span: Span) -> tuple[float, bool, dict[str, int]]:
    """(latency, degraded, bytes-by-route) for one closed read span."""
    routed = {r: 0 for r in ROUTES}
    degraded = False
    for _, key, value in span.annotations:
        if key.startswith("bytes:"):
            routed[key[6:]] = routed.get(key[6:], 0) + int(value)
        elif key == "degraded":
            degraded = True
    return span.duration, degraded, routed


def _aggregate(
    entity: str,
    reads: list[tuple[float, float, bool, dict[str, int]]],
    origin: float,
    horizon: float,
    window: float,
) -> EntitySLO:
    """Roll ``(t_end, latency, degraded, routed)`` reads into windows."""
    slo = EntitySLO(entity)
    n_windows = max(1, math.ceil((horizon - origin) / window - 1e-9))
    per_window: list[list[float]] = [[] for _ in range(n_windows)]
    windows = [
        SLOWindow(origin + i * window, origin + (i + 1) * window)
        for i in range(n_windows)
    ]
    all_latencies: list[float] = []
    for t_end, latency, degraded, routed in reads:
        idx = min(n_windows - 1, max(0, int((t_end - origin) / window)))
        w = windows[idx]
        w.n_reads += 1
        per_window[idx].append(latency)
        all_latencies.append(latency)
        slo.n_reads += 1
        if degraded:
            w.degraded += 1
            slo.degraded += 1
        for route, nbytes in routed.items():
            w.bytes_by_path[route] = w.bytes_by_path.get(route, 0) + nbytes
            slo.bytes_by_path[route] = slo.bytes_by_path.get(route, 0) + nbytes
    for w, latencies in zip(windows, per_window):
        w.p50, w.p95, w.p99 = _percentiles(latencies)
    slo.p50, slo.p95, slo.p99 = _percentiles(all_latencies)
    slo.windows = windows
    return slo


def bucket_times(
    times: list[float], window: float, origin: float, horizon: float
) -> list[int]:
    """Per-window event counts over the same grid :func:`compute_slo`
    uses, so point events (membership transitions, fault onsets) line
    up column-for-column under a report's degradation strip.  Events
    outside ``[origin, horizon)`` are dropped."""
    if window <= 0:
        raise ValueError("window must be positive")
    n_windows = max(1, math.ceil((horizon - origin) / window - 1e-9))
    counts = [0] * n_windows
    for t in times:
        if not (origin <= t < horizon + 1e-12):
            continue
        counts[min(n_windows - 1, max(0, int((t - origin) / window)))] += 1
    return counts


def compute_slo(
    recorder: SpanRecorder,
    window: float,
    origin: Optional[float] = None,
    horizon: Optional[float] = None,
) -> SLOReport:
    """Roll a recorded span timeline into an :class:`SLOReport`.

    ``origin``/``horizon`` bound the analysis range (defaults: first
    read begin / last read end); reads completing outside it are
    dropped, which is how warm-up epochs are excluded.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    spans = recorder.spans()
    client_reads = [
        s for s in spans.values() if s.name == "client.read" and s.closed
    ]
    server_reads = [
        s for s in spans.values() if s.name == "server.read" and s.closed
    ]

    if origin is None:
        origin = min((s.t0 for s in client_reads), default=0.0)
    if horizon is None:
        horizon = max((s.t1 for s in client_reads), default=origin + window)
    if horizon <= origin:
        horizon = origin + window

    by_client: dict[int, list] = {}
    by_tenant: dict[int, list] = {}
    total_reads: list = []
    for s in client_reads:
        if not (origin <= s.t1 < horizon + 1e-12):
            continue
        latency, degraded, routed = _read_facts(s)
        fact = (s.t1, latency, degraded, routed)
        by_client.setdefault(int(s.attrs.get("client", -1)), []).append(fact)
        tenant = s.attrs.get("tenant")
        if tenant is not None:
            by_tenant.setdefault(int(tenant), []).append(fact)
        total_reads.append(fact)

    by_server: dict[int, list] = {}
    for s in server_reads:
        if not (origin <= s.t1 < horizon + 1e-12):
            continue
        hit = bool(s.annotation("hit", 0))
        routed = {"local": 0, "remote": 0, "pfs": 0}
        # server-side view: a hit served NVMe bytes, a miss pulled PFS
        routed["local" if hit else "pfs"] = int(s.attrs.get("bytes", 0))
        fact = (s.t1, s.duration, not hit, routed)
        by_server.setdefault(int(s.attrs.get("server", -1)), []).append(fact)

    report = SLOReport(window=window, t0=origin, t1=horizon)
    for cid in sorted(by_client):
        report.clients[cid] = _aggregate(
            f"client {cid}", by_client[cid], origin, horizon, window
        )
    for sid in sorted(by_server):
        report.servers[sid] = _aggregate(
            f"server {sid}", by_server[sid], origin, horizon, window
        )
    for tid in sorted(by_tenant):
        report.tenants[tid] = _aggregate(
            f"tenant {tid}", by_tenant[tid], origin, horizon, window
        )
    report.totals = _aggregate("total", total_reads, origin, horizon, window)
    return report
