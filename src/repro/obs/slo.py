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

from .spans import SpanFold

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
    totals: EntitySLO = field(default_factory=EntitySLO)


#: the percentile levels of every window and rollup
_LEVELS = (0.50, 0.95, 0.99)


def _percentiles(latencies: list[float]) -> tuple[float, float, float]:
    """p50/p95/p99 by numpy's default ``linear`` method, bit for bit:
    the same virtual index, neighbours and two-sided lerp as
    ``np.percentile(latencies, [50, 95, 99])``, without an array per
    window (``tests/test_slo_fold.py`` holds it to numpy)."""
    if not latencies:
        return (float("nan"),) * 3
    xs = sorted(latencies)
    last = len(xs) - 1
    out = []
    for q in _LEVELS:
        virtual = last * q
        if virtual >= last:
            out.append(xs[last])
            continue
        below = math.floor(virtual)
        gamma = virtual - below
        a, b = xs[below], xs[below + 1]
        diff = b - a
        out.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    return out[0], out[1], out[2]


def _aggregate(
    reads: list[tuple[float, float, bool, dict[str, int]]],
    origin: float,
    horizon: float,
    window: float,
) -> EntitySLO:
    """Roll ``(t_end, latency, degraded, routed)`` reads into windows;
    ``routed`` holds only the routes a read used."""
    slo = EntitySLO()
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


def _check_grid(window: float, origin: Optional[float], horizon: Optional[float]) -> None:
    """Reject a window grid ``math.ceil`` cannot count.  NaN passes a
    plain ``window <= 0`` test, and an infinite window is one bucket
    with NaN edges."""
    if not (0.0 < window < math.inf):
        raise ValueError(f"window must be positive and finite, got {window!r}")
    for name, value in (("origin", origin), ("horizon", horizon)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def bucket_times(
    times: list[float], window: float, origin: float, horizon: float
) -> list[int]:
    """Per-window event counts over the same grid :func:`compute_slo`
    uses, so point events (membership transitions, fault onsets) line
    up column-for-column under a report's degradation strip.  Events
    outside ``[origin, horizon)`` are dropped."""
    _check_grid(window, origin, horizon)
    n_windows = max(1, math.ceil((horizon - origin) / window - 1e-9))
    counts = [0] * n_windows
    for t in times:
        if not (origin <= t < horizon + 1e-12):
            continue
        counts[min(n_windows - 1, max(0, int((t - origin) / window)))] += 1
    return counts


def compute_slo(
    fold: SpanFold,
    window: float,
    origin: Optional[float] = None,
    horizon: Optional[float] = None,
) -> SLOReport:
    """Roll a run's folded read spans (:meth:`SpanRecorder.fold`) into
    an :class:`SLOReport`.

    ``origin``/``horizon`` bound the analysis range (defaults: first
    read begin / last read end); reads completing outside it are
    dropped, which is how warm-up epochs are excluded.
    """
    _check_grid(window, origin, horizon)
    client_reads = [s for s in fold.reads if s.t1 is not None]

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
        fact = (s.t1, s.t1 - s.t0, s.degraded, s.routed)
        by_client.setdefault(int(s.attrs.get("client", -1)), []).append(fact)
        tenant = s.attrs.get("tenant")
        if tenant is not None:
            by_tenant.setdefault(int(tenant), []).append(fact)
        total_reads.append(fact)

    by_server: dict[int, list] = {}
    for s in fold.server_reads:
        if s.t1 is None or not (origin <= s.t1 < horizon + 1e-12):
            continue
        hit = bool(s.hit)
        # server-side view: a hit served NVMe bytes, a miss pulled PFS
        routed = {"local" if hit else "pfs": int(s.attrs.get("bytes", 0))}
        fact = (s.t1, s.t1 - s.t0, not hit, routed)
        by_server.setdefault(int(s.attrs.get("server", -1)), []).append(fact)

    report = SLOReport(window=window, t0=origin, t1=horizon)
    for cid in sorted(by_client):
        report.clients[cid] = _aggregate(by_client[cid], origin, horizon, window)
    for sid in sorted(by_server):
        report.servers[sid] = _aggregate(by_server[sid], origin, horizon, window)
    for tid in sorted(by_tenant):
        report.tenants[tid] = _aggregate(by_tenant[tid], origin, horizon, window)
    report.totals = _aggregate(total_reads, origin, horizon, window)
    return report
