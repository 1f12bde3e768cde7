"""Telemetry subsystem: sim-clock spans, metric scopes, SLO rollups.

Three layers, all layered on the deterministic sim clock:

* :mod:`.spans` — a zero-wall-clock span tracer.  One ``list.append``
  per event on the hot path, no kernel interaction, so enabling spans
  never changes the event-stream fingerprint of a run.  The span tree
  is the one record of each read's latency and of the client, server
  and tenant it belongs to.
* metric scopes — dotted-prefix views over the run's counters in
  :class:`repro.simcore.MetricRegistry` (see ``simcore/monitor.py``);
  every instrumented component (client, server, cache, storage, NVMe)
  counts under its own fixed scope.
* :mod:`.slo` — rolls a run's span fold (:meth:`SpanRecorder.fold`,
  one walk of the log that keeps only the read-path spans) into
  per-client / per-server / per-tenant SLO windows: p50/p95/p99 read
  latency, degraded-read fraction, and bytes-by-path (NVMe-local /
  remote-RPC / PFS-fallback).

The ``repro slo`` CLI subcommand and ``analysis/dashboard.py`` render
these into the degradation dashboard.
"""

from .slo import EntitySLO, ROUTES, SLOReport, SLOWindow, bucket_times, compute_slo
from .spans import ReadSpan, Span, SpanFold, SpanRecorder

__all__ = [
    "EntitySLO",
    "ROUTES",
    "ReadSpan",
    "SLOReport",
    "SLOWindow",
    "Span",
    "SpanFold",
    "SpanRecorder",
    "bucket_times",
    "compute_slo",
]
