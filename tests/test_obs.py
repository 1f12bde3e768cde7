"""Telemetry subsystem: spans, metric scopes, SLO rollup, determinism.

The load-bearing properties pinned here:

* span recording is *passive* — attaching a recorder does not change the
  event-stream fingerprint of an identically-seeded run without one;
* the span timeline itself is deterministic — two same-seed runs of the
  resilience experiment produce byte-identical timelines;
* a crash-at-t fault visibly shifts the SLO metrics (tail latency,
  degraded fraction, bytes-by-path) relative to the no-fault baseline;
* striped reads account hits per segment (a single lost segment is a
  partial hit, not a whole-file miss).
"""

import json
import math
import re

import pytest

from repro.analysis import degradation_dashboard, degradation_strip
from repro.cluster import Allocation, TESTING
from repro.core import HVACDeployment
from repro.experiments.resilience import resilience_sweep
from repro.experiments.slo_exp import slo_scenario
from repro.obs import ROUTES, SpanRecorder, bucket_times, compute_slo
from repro.simcore import AllOf, Environment, EventTrace, MetricRegistry
from repro.storage import GPFS


# ---------------------------------------------------------------------------
# Metric scopes (simcore.monitor)
# ---------------------------------------------------------------------------
class TestMetricScope:
    def test_scope_names_alias_registry_names(self):
        reg = MetricRegistry()
        reg.scope("hvac").counter("reads").incr(5)
        assert reg.counter("hvac.reads").value == 5


# ---------------------------------------------------------------------------
# SpanRecorder
# ---------------------------------------------------------------------------
class TestSpanRecorder:
    def test_tree_assembly_and_annotations(self):
        rec = SpanRecorder()
        root = rec.begin("client.read", 0.0, client=3, bytes=100)
        child = rec.begin("rpc.read", 0.1, parent=root, dst=1)
        rec.annotate(root, 0.2, "bytes:remote", 100)
        rec.annotate(root, 0.3, "degraded", 1)
        rec.end(child, 0.4, status="timeout")
        rec.end(root, 0.5)
        spans = rec.spans()
        assert spans[root].children == [child]
        assert spans[child].parent == root
        assert spans[child].status == "timeout"
        assert spans[root].duration == pytest.approx(0.5)
        assert spans[root].annotation("bytes:remote") == 100
        assert spans[root].parent is None
        assert [s.sid for s in rec.named("rpc.read")] == [child]

    def test_annotation_last_wins(self):
        rec = SpanRecorder()
        sid = rec.begin("x", 0.0)
        rec.annotate(sid, 0.1, "k", 1)
        rec.annotate(sid, 0.2, "k", 2)
        assert rec.spans()[sid].annotation("k") == 2
        assert rec.spans()[sid].annotation("missing", "d") == "d"

    def test_open_span_has_nan_duration(self):
        rec = SpanRecorder()
        sid = rec.begin("abandoned", 1.0)
        span = rec.spans()[sid]
        assert not span.closed
        assert math.isnan(span.duration)

    def test_jsonl_round_trip(self, tmp_path):
        rec = SpanRecorder()
        a = rec.begin("a", 0.0, k="v")
        rec.end(a, 1.0)
        rec.begin("b", 2.0, parent=a)
        path = tmp_path / "spans.jsonl"
        assert rec.write_jsonl(str(path)) == 2
        lines = path.read_text().splitlines()
        objs = [json.loads(line) for line in lines]
        assert [o["sid"] for o in objs] == [0, 1]
        assert objs[0]["attrs"] == {"k": "v"}
        assert objs[1]["t1"] is None

    def test_fingerprint_distinguishes_timelines(self):
        r1, r2 = SpanRecorder(), SpanRecorder()
        for r in (r1, r2):
            sid = r.begin("x", 0.0)
            r.end(sid, 1.0)
        assert r1.fingerprint == r2.fingerprint
        r2.annotate(0, 1.0, "extra")
        assert r1.fingerprint != r2.fingerprint


# ---------------------------------------------------------------------------
# SLO rollup (unit level, hand-built timeline)
# ---------------------------------------------------------------------------
def _synthetic_recorder():
    rec = SpanRecorder()
    # client 0: two clean reads, one degraded (pfs) read later
    for t0, dt, route in [(0.0, 0.1, "local"), (1.0, 0.1, "remote")]:
        sid = rec.begin("client.read", t0, client=0, bytes=100)
        rec.annotate(sid, t0 + dt, f"bytes:{route}", 100)
        rec.end(sid, t0 + dt)
    sid = rec.begin("client.read", 3.0, client=0, bytes=100)
    rec.annotate(sid, 3.9, "bytes:pfs", 100)
    rec.annotate(sid, 3.9, "degraded", 1)
    rec.end(sid, 3.9)
    # server 1: one hit, one miss
    sid = rec.begin("server.read", 0.0, server=1, bytes=100)
    rec.annotate(sid, 0.05, "hit", 1)
    rec.end(sid, 0.05)
    sid = rec.begin("server.read", 1.0, server=1, bytes=100)
    rec.annotate(sid, 1.5, "hit", 0)
    rec.end(sid, 1.5)
    return rec


class TestComputeSLO:
    def test_windows_and_routes(self):
        report = compute_slo(_synthetic_recorder().fold(), window=1.0,
                             origin=0.0, horizon=4.0)
        total = report.totals
        assert total.n_reads == 3
        assert total.degraded == 1
        assert total.degraded_fraction == pytest.approx(1 / 3)
        assert total.bytes_by_path == {"local": 100, "remote": 100, "pfs": 100}
        assert len(total.windows) == 4
        assert [w.n_reads for w in total.windows] == [1, 1, 0, 1]
        # read completing at 3.9 lands in window [3, 4)
        assert total.windows[3].degraded == 1
        assert total.windows[3].bytes_by_path["pfs"] == 100
        # half-open windows align to origin
        assert total.windows[0].t0 == 0.0 and total.windows[0].t1 == 1.0
        assert [(w.t0, w.t1) for w in total.windows] == [
            (0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)
        ]

    def test_latency_percentiles(self):
        report = compute_slo(_synthetic_recorder().fold(), window=4.0,
                             origin=0.0, horizon=4.0)
        total = report.totals
        # latencies 0.1, 0.1, 0.9
        assert total.p50 == pytest.approx(0.1)
        assert total.p99 > total.p50

    def test_server_view(self):
        report = compute_slo(_synthetic_recorder().fold(), window=2.0,
                             origin=0.0, horizon=4.0)
        srv = report.servers[1]
        assert srv.n_reads == 2
        assert srv.degraded == 1  # the miss
        assert srv.bytes_by_path["local"] == 100  # the hit, from NVMe
        assert srv.bytes_by_path["pfs"] == 100    # the miss, fetched

    def test_horizon_excludes_out_of_range_reads(self):
        report = compute_slo(_synthetic_recorder().fold(), window=1.0,
                             origin=0.0, horizon=2.0)
        assert report.totals.n_reads == 2  # the t=3.9 read is out of range

    def test_window_validation(self):
        with pytest.raises(ValueError):
            compute_slo(SpanRecorder().fold(), window=0.0)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(window=math.nan), "window"),
        (dict(window=math.inf), "window"),
        (dict(window=-1.0), "window"),
        (dict(window=1.0, origin=math.nan), "origin"),
        (dict(window=1.0, origin=0.0, horizon=math.nan), "horizon"),
    ])
    def test_grid_validation(self, kwargs, name):
        fold = _synthetic_recorder().fold()
        with pytest.raises(ValueError, match=name):
            compute_slo(fold, **kwargs)
        grid = {"origin": 0.0, "horizon": 4.0, **kwargs}
        with pytest.raises(ValueError, match=name):
            bucket_times([1.0], **grid)

    def test_empty_recorder(self):
        report = compute_slo(SpanRecorder().fold(), window=1.0)
        assert report.totals.n_reads == 0
        assert report.clients == {} and report.servers == {}


class TestDashboard:
    def test_strip_ramp(self):
        assert degradation_strip([0.0, 0.5, 1.0]) == " +@"
        # out-of-range inputs clamp instead of indexing out of bounds
        assert degradation_strip([-1.0, 2.0]) == " @"

    def test_requires_a_report(self):
        with pytest.raises(ValueError):
            degradation_dashboard({})


# ---------------------------------------------------------------------------
# End-to-end: instrumented deployment
# ---------------------------------------------------------------------------
def build(n_nodes=3, spans=None, trace=None, **hvac):
    env = Environment()
    env.spans = spans
    if trace is not None:
        env.observe(trace)
    spec = TESTING.with_hvac(**hvac) if hvac else TESTING
    alloc = Allocation(env, spec, n_nodes=n_nodes)
    pfs = GPFS(env, spec.pfs, n_nodes, spec.network.nic_bandwidth)
    dep = HVACDeployment(alloc, pfs)
    return env, dep


FILES = [(f"/data/f{i}", 30_000) for i in range(20)]


def read_epoch(env, dep, files, node_ids):
    def reader(node_id):
        cli = dep.client(node_id)
        for path, size in files:
            yield from cli.read_file(path, size, node_id)

    procs = [env.process(reader(n)) for n in node_ids]

    def wait():
        yield AllOf(env, procs)

    env.run(env.process(wait()))


class TestInstrumentedDeployment:
    def test_span_tree_covers_the_stack(self):
        rec = SpanRecorder()
        env, dep = build(spans=rec)
        read_epoch(env, dep, FILES, [0, 1])
        reads = rec.named("client.read")
        assert len(reads) == 2 * len(FILES)
        assert all(s.closed for s in reads)
        spans = rec.spans()
        # every client.read has an rpc.read child; rpc.read has a
        # server.read child (linked across the endpoint via the payload)
        for read in reads:
            kids = [spans[k].name for k in read.children]
            assert "rpc.read" in kids
        assert rec.named("server.read")
        assert rec.named("server.pfs_fetch")  # cold epoch misses
        # server.read spans link across the RPC boundary into the
        # client's tree: their parent is the client.read root
        server_reads = rec.named("server.read")
        assert server_reads
        for srv in server_reads:
            assert spans[srv.parent].name == "client.read"
        # and mover-side children hang off the server.read span
        for child_name in ("server.bulk", "server.nvme", "server.pfs_fetch"):
            for child in rec.named(child_name):
                assert spans[child.parent].name == "server.read"

    def test_route_bytes_cover_all_reads(self):
        rec = SpanRecorder()
        env, dep = build(spans=rec)
        read_epoch(env, dep, FILES, [0, 1])
        totals = compute_slo(rec.fold(), window=1.0).totals
        assert totals.total_bytes == 2 * len(FILES) * 30_000
        assert set(totals.bytes_by_path) == set(ROUTES)

    def test_per_component_metrics_populated(self):
        rec = SpanRecorder()
        env, dep = build(spans=rec)
        read_epoch(env, dep, FILES, [0, 1])
        m = dep.metrics
        assert m.counter("hvac.client_opens").value == 2 * len(FILES)
        slo = compute_slo(rec.fold(), window=1.0)
        assert {c: e.n_reads for c, e in slo.clients.items()} == {
            0: len(FILES), 1: len(FILES)
        }
        per_server = sum(e.total_bytes for e in slo.servers.values())
        assert per_server == m.counter("hvac.bytes_served").value

    def test_no_per_entity_counters_without_membership(self):
        env, dep = build()
        read_epoch(env, dep, FILES, [0, 1])
        shadow = re.compile(r"hvac\.[cst]\d+\.")
        names = list(dep.metrics.counters)
        assert any(n.startswith("hvac.") for n in names)
        assert not [n for n in names if shadow.match(n)]

    def test_detector_metrics_on_crash(self):
        rec = SpanRecorder()
        env, dep = build(
            spans=rec,
            rpc_timeout=0.05, rpc_max_retries=2, suspect_after=1,
            probation_period=10.0,
        )
        read_epoch(env, dep, FILES[:6], [0])
        dep.fail_node(1)
        read_epoch(env, dep, FILES[:6], [0])
        detector = dep.client(0).detector
        assert any(kind == "suspect" for _, kind, _ in detector.transitions)
        # fallback reads annotated degraded on their root spans
        degraded = [
            s for s in rec.named("client.read")
            if s.annotation("degraded") is not None
        ]
        assert degraded
        assert rec.named("pfs.fallback")


class TestStripedSegmentAccounting:
    STRIPED = dict(
        stripe_large_files=True,
        stripe_threshold=1_000_000,
        stripe_segment=500_000,
    )
    BIG = 2_000_000  # 4 segments

    def test_full_hit_after_warm(self):
        env, dep = build(n_nodes=4, **self.STRIPED)
        env.run(env.process(dep.client(0).read_file("/d/big", self.BIG, 0)))
        env.run(env.process(dep.client(0).read_file("/d/big", self.BIG, 0)))
        m = dep.metrics
        assert m.counter("hvac.client_seg_misses").value == 4
        assert m.counter("hvac.client_seg_hits").value == 4
        assert m.counter("hvac.client_hits").value == 1
        assert m.counter("hvac.client_misses").value == 1
        assert m.counter("hvac.client_partial_hits").value == 0

    def test_lost_segment_is_partial_hit_not_whole_file_miss(self):
        env, dep = build(
            n_nodes=4,
            rpc_timeout=0.05, rpc_max_retries=2, suspect_after=1,
            replication_factor=1,
            **self.STRIPED,
        )
        env.run(env.process(dep.client(0).read_file("/d/big", self.BIG, 0)))
        # Crash one node that homes at least one segment; its segments
        # fall back to the PFS, the rest still hit.
        homes = [
            dep.placement.replicas(f"/d/big#seg{i}", client=0)[0]
            for i in range(4)
        ]
        victim = homes[0]
        n_lost = sum(1 for h in homes if h == victim)
        assert n_lost < 4, "need a surviving segment"
        dep.servers[victim].fail()
        env.run(env.process(dep.client(0).read_file("/d/big", self.BIG, 0)))
        m = dep.metrics
        assert m.counter("hvac.client_partial_hits").value == 1
        assert m.counter("hvac.client_seg_misses").value == 4  # cold first read
        assert m.counter("hvac.client_seg_fallbacks").value == n_lost
        assert m.counter("hvac.client_seg_hits").value == 4 - n_lost  # survivors
        # degraded read counted once at file level
        assert m.counter("hvac.client_degraded_reads").value == 1


# ---------------------------------------------------------------------------
# Determinism acceptance criteria
# ---------------------------------------------------------------------------
class TestTelemetryDeterminism:
    SWEEP = dict(fail_fractions=(0.0, 0.5), n_nodes=3, n_files=8, seed=7)

    def test_same_seed_double_run_identical_span_timeline(self):
        rec1, rec2 = SpanRecorder(), SpanRecorder()
        resilience_sweep(spans=rec1, **self.SWEEP)
        resilience_sweep(spans=rec2, **self.SWEEP)
        assert len(rec1.events) == len(rec2.events)
        assert rec1.fingerprint == rec2.fingerprint

    def test_spans_do_not_perturb_the_event_stream(self):
        def run(spans):
            trace = EventTrace()
            env, dep = build(n_nodes=3, spans=spans, trace=trace)
            read_epoch(env, dep, FILES, [0, 1, 2])
            read_epoch(env, dep, FILES, [0, 1, 2])
            return trace

        with_spans = run(SpanRecorder())
        without = run(None)
        assert with_spans.count == without.count
        assert with_spans.fingerprint == without.fingerprint


# ---------------------------------------------------------------------------
# SLO scenario + dashboard (the `repro slo` driver)
# ---------------------------------------------------------------------------
class TestSLOScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return slo_scenario(n_nodes=3, n_files=12, windows=8)

    def test_fault_shifts_slo_metrics(self, result):
        base, fault = result.baseline.totals, result.faulted.totals
        assert base.n_reads == fault.n_reads > 0
        assert base.degraded_fraction == 0.0
        assert fault.degraded_fraction > 0.0
        assert fault.p99 > base.p99
        assert base.bytes_by_path["pfs"] == 0
        assert fault.bytes_by_path["pfs"] > 0
        # both rolled over the same absolute window grid
        assert result.baseline.t0 == result.faulted.t0
        assert result.baseline.t1 == result.faulted.t1
        assert len(result.baseline.totals.windows) == 8

    def test_dashboard_renders_the_shift(self, result):
        text = result.render()
        assert "baseline" in text and "crash@" in text
        assert "degraded-read fraction" in text
        assert "per-client SLOs" in text
        # the faulted strip shows at least one non-clean window
        strip_section = text.split("degraded-read fraction")[1]
        fault_line = [l for l in strip_section.splitlines() if "crash@" in l][0]
        assert fault_line.count("|") == 2
        assert fault_line.split("|")[1].strip() != ""

    def test_artifacts_written(self, result, tmp_path):
        paths = result.write_artifacts(str(tmp_path))
        assert (tmp_path / "dashboard.txt").exists()
        jsonls = [p for name, p in paths.items() if name.startswith("spans[")]
        assert len(jsonls) == 2
        for p in jsonls:
            first = json.loads(open(p).readline())
            assert {"sid", "name", "t0", "t1"} <= set(first)

    def test_validation(self):
        with pytest.raises(ValueError):
            slo_scenario(n_nodes=1)
