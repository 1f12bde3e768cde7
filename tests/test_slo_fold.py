"""The one span fold per run against the full span tree.

:meth:`SpanRecorder.fold` keeps only the read-path spans, and
:func:`compute_slo` rolls them up with a pure-Python percentile.  Both
must give what the old path gave: a report built from
:meth:`SpanRecorder.spans` with ``np.percentile``, kept here as the
reference, bit for bit.
"""

import importlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent
from repro.fuzz import Scenario, Workload, execute
from repro.obs import SLOReport, SpanRecorder, compute_slo
from repro.obs.slo import ROUTES, EntitySLO, SLOWindow, _percentiles

prefetch_mod = importlib.import_module("repro.experiments.prefetch")


# ---------------------------------------------------------------------------
# Percentiles: numpy's default linear method, bit for bit
# ---------------------------------------------------------------------------
def _numpy(xs):
    return tuple(float(v) for v in np.percentile(np.asarray(xs, dtype=float),
                                                 [50.0, 95.0, 99.0]))


def _bits(values):
    # Zeros compare by value: numpy's sort may put -0.0 and 0.0 either
    # way round, so a percentile that lands on a zero has either sign.
    return [(v + 0.0).hex() for v in values]


def _sample(n, seed, shape):
    rand = random.Random(seed)
    if shape == "lognormal":
        return [rand.lognormvariate(-7.0, 1.5) for _ in range(n)]
    if shape == "ties":
        pool = [rand.lognormvariate(-7.0, 1.5) for _ in range(rand.randint(1, 5))]
        return [rand.choice(pool) for _ in range(n)]
    return [rand.uniform(-1e3, 1e3)] * n  # one repeated value


class TestPercentiles:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 3_333),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["lognormal", "ties", "constant"]),
    )
    def test_long_lists_match_numpy(self, n, seed, shape):
        xs = _sample(n, seed, shape)
        assert _bits(_percentiles(xs)) == _bits(_numpy(xs))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            st.sampled_from([0.0, 1e-6, 0.001, 0.1, 0.5, 2.0]),
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=60,
    ))
    @example([0.0] * 4 + [1e-06] * 4 + [-0.0] * 2)
    def test_short_lists_with_ties_match_numpy(self, xs):
        assert _bits(_percentiles(xs)) == _bits(_numpy(xs))

    def test_empty_is_nan(self):
        assert all(math.isnan(v) for v in _percentiles([]))


# ---------------------------------------------------------------------------
# compute_slo over the fold == the reference over the full tree
# ---------------------------------------------------------------------------
def _reference_aggregate(reads, origin, horizon, window):
    slo = EntitySLO()
    n_windows = max(1, math.ceil((horizon - origin) / window - 1e-9))
    windows = [
        SLOWindow(origin + i * window, origin + (i + 1) * window)
        for i in range(n_windows)
    ]
    per_window = [[] for _ in windows]
    every = []
    for t_end, latency, degraded, routed in reads:
        idx = min(n_windows - 1, max(0, int((t_end - origin) / window)))
        windows[idx].n_reads += 1
        per_window[idx].append(latency)
        every.append(latency)
        slo.n_reads += 1
        if degraded:
            windows[idx].degraded += 1
            slo.degraded += 1
        for route, nbytes in routed.items():
            windows[idx].bytes_by_path[route] += nbytes
            slo.bytes_by_path[route] += nbytes
    for w, latencies in zip(windows, per_window):
        if latencies:
            w.p50, w.p95, w.p99 = _numpy(latencies)
    if every:
        slo.p50, slo.p95, slo.p99 = _numpy(every)
    slo.windows = windows
    return slo


def reference_slo(rec, window, origin=None, horizon=None) -> SLOReport:
    """The SLO report from the assembled tree, as before the fold."""
    spans = rec.spans().values()
    client = [s for s in spans if s.name == "client.read" and s.closed]
    server = [s for s in spans if s.name == "server.read" and s.closed]
    if origin is None:
        origin = min((s.t0 for s in client), default=0.0)
    if horizon is None:
        horizon = max((s.t1 for s in client), default=origin + window)
    if horizon <= origin:
        horizon = origin + window

    def in_range(s):
        return origin <= s.t1 < horizon + 1e-12

    by_client, by_tenant, by_server, total = {}, {}, {}, []
    for s in filter(in_range, client):
        routed = {r: 0 for r in ROUTES}
        for _, key, value in s.annotations:
            if key.startswith("bytes:"):
                routed[key[6:]] += int(value)
        degraded = s.annotation("degraded") is not None
        fact = (s.t1, s.duration, degraded, routed)
        by_client.setdefault(int(s.attrs.get("client", -1)), []).append(fact)
        if s.attrs.get("tenant") is not None:
            by_tenant.setdefault(int(s.attrs["tenant"]), []).append(fact)
        total.append(fact)
    for s in filter(in_range, server):
        hit = bool(s.annotation("hit", 0))
        routed = {r: 0 for r in ROUTES}
        routed["local" if hit else "pfs"] = int(s.attrs.get("bytes", 0))
        fact = (s.t1, s.duration, not hit, routed)
        by_server.setdefault(int(s.attrs.get("server", -1)), []).append(fact)

    report = SLOReport(window=window, t0=origin, t1=horizon)
    for groups, out in ((by_client, report.clients),
                        (by_server, report.servers),
                        (by_tenant, report.tenants)):
        for key in sorted(groups):
            out[key] = _reference_aggregate(groups[key], origin, horizon, window)
    report.totals = _reference_aggregate(total, origin, horizon, window)
    return report


def _same(got: SLOReport, want: SLOReport) -> None:
    # repr is NaN-aware (empty windows hold NaN percentiles) and exact:
    # a float's repr round-trips its bits
    assert repr(got) == repr(want)


@pytest.fixture
def kept_logs(monkeypatch):
    """A copy of every log folded during the test, taken before the
    fold: the fuzz executor and the prefetch modes empty it after."""
    logs = []
    fold = SpanRecorder.fold

    def keep(self):
        copy = SpanRecorder()
        copy.events = list(self.events)
        logs.append(copy)
        return fold(self)

    monkeypatch.setattr(SpanRecorder, "fold", keep)
    return logs


def _fuzz(**kw) -> Scenario:
    defaults = dict(
        seed=5,
        n_nodes=3,
        n_files=6,
        mean_file_size=20_000,
        workload=Workload(kind="uniform", clients=(0, 2), reads_per_client=6),
        faults=(FaultEvent(time=0.001, kind="crash", node=1, duration=0.02),),
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestFoldMatchesTree:
    @pytest.mark.parametrize("scenario", [
        _fuzz(),
        _fuzz(tenants=2, tenant_workloads=(
            Workload(kind="hotstorm", clients=(1,), reads_per_client=5),)),
    ], ids=["faulted", "two-tenant"])
    def test_fuzz_execution(self, kept_logs, scenario):
        obs = execute(scenario)
        (log,) = kept_logs
        assert obs.slo is not None and obs.slo.totals.n_reads
        if scenario.tenants > 1:
            assert len(obs.slo.tenants) == 2
        else:
            assert obs.counters["client_pfs_fallback"] > 0
        _same(obs.slo, reference_slo(log, obs.slo_window,
                                     origin=obs.t_fault, horizon=obs.t_end))

    def test_prefetch_comparison_modes(self, kept_logs, monkeypatch):
        calls = []
        compute = prefetch_mod.compute_slo

        def spy(fold, window, origin=None, horizon=None):
            report = compute(fold, window, origin=origin, horizon=horizon)
            calls.append((window, origin, horizon, report))
            return report

        monkeypatch.setattr(prefetch_mod, "compute_slo", spy)
        prefetch_mod.prefetch_comparison(n_files=32, epochs=2, windows=4)
        assert len(calls) == len(kept_logs) == len(prefetch_mod.PREFETCH_MODES)
        for log, (window, origin, horizon, report) in zip(kept_logs, calls):
            assert report.totals.n_reads
            _same(report, reference_slo(log, window, origin, horizon))

    def test_default_range_and_open_spans(self):
        # no origin/horizon given; one read and one server span never close
        rec = SpanRecorder()
        for i, (dt, route) in enumerate([(0.1, "local"), (0.3, "remote"),
                                         (0.3, "remote"), (0.7, "pfs")]):
            sid = rec.begin("client.read", float(i), client=i % 2, bytes=10)
            srv = rec.begin("server.read", float(i), parent=sid, server=1,
                            bytes=10)
            rec.annotate(srv, i + dt / 2, "hit", i % 2)
            rec.end(srv, i + dt / 2)
            rec.annotate(sid, i + dt, "strike", 0)
            rec.annotate(sid, i + dt, f"bytes:{route}", 10)
            if route == "pfs":
                rec.annotate(sid, i + dt, "degraded", 1)
            rec.end(sid, i + dt)
        rec.begin("client.read", 9.0, client=0, bytes=10)
        rec.begin("server.read", 9.0, server=1, bytes=10)
        _same(compute_slo(rec.fold(), 0.5), reference_slo(rec, 0.5))
