"""Multi-tenant fleet: namespaces, quotas, admission, cache arbitration.

The tenancy subsystem's contract, pinned at four layers:

1. **identity** — :func:`tenant_of_path` is a pure parse of the
   ``/pfs/t<j>/`` namespace prefix, and :class:`TenantSpec` rejects
   malformed workloads at construction;
2. **fleet state split** — per-job client state is keyed by
   ``(node, tenant)`` while the :class:`QuotaLedger` and per-cache
   arbiters are fleet-wide, and each arbiter mode produces its
   documented residency shape under a hot-storm (dedicated slabs cap
   the aggressor, shared LRU sacrifices the victim, weighted-fair
   protects the under-watermark tenant);
3. **admission** — the controller walks admit -> queue -> degrade as
   the byte budget saturates, rejects only when ``degrade_ok`` is off,
   and promotes queued jobs on release;
4. **determinism** — seeded arrivals and the full isolation experiment
   replay bit-for-bit: same seed, same event fingerprint, same
   per-tenant SLO windows.
"""

import math

import pytest

from repro.core import client_key_order
from repro.experiments.comparison import build_deployment, fault_spec
from repro.experiments.tenancy import (
    SMOKE,
    TENANCY_SPEC_OVERRIDES,
    tenancy_isolation,
)
from repro.obs import SpanRecorder, compute_slo
from repro.simcore import Environment, EventTrace
from repro.tenancy import (
    AdmissionController,
    QuotaLedger,
    TenantFleet,
    TenantSpec,
    job_plan,
    run_jobs,
    sample_jobs,
    tenant_of_path,
)


class TestTenantOfPath:
    def test_parses_namespace_prefix(self):
        assert tenant_of_path("/pfs/t0/f0001") == 0
        assert tenant_of_path("/pfs/t12/ds/part/f") == 12

    def test_non_tenant_paths_are_none(self):
        assert tenant_of_path("/pfs/fuzz/f0001") is None
        assert tenant_of_path("/pfs/ds/f0001") is None

    def test_prefix_without_trailing_slash_is_none(self):
        assert tenant_of_path("/pfs/t7") is None

    def test_non_digit_id_is_none(self):
        assert tenant_of_path("/pfs/tx/f") is None
        assert tenant_of_path("/pfs/t1x/f") is None


class TestTenantSpec:
    def test_defaults_and_namespace(self):
        spec = TenantSpec(tenant_id=3)
        assert spec.label == "t3"
        assert spec.namespace == "/pfs/t3"
        assert spec.dataset_bytes == spec.n_files * spec.file_size

    def test_files_live_under_the_namespace(self):
        spec = TenantSpec(tenant_id=2, n_files=3, file_size=1000)
        files = spec.files()
        assert len(files) == 3
        assert all(path.startswith("/pfs/t2/") for path, _ in files)
        assert all(tenant_of_path(path) == 2 for path, _ in files)
        assert all(size == 1000 for _, size in files)

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(tenant_id=-1)
        with pytest.raises(ValueError):
            TenantSpec(tenant_id=0, kind="batch")
        with pytest.raises(ValueError):
            TenantSpec(tenant_id=0, weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec(tenant_id=0, quota_bytes=-1)
        with pytest.raises(ValueError):
            TenantSpec(tenant_id=0, hot_fraction=1.5)


class TestQuotaLedger:
    def _ledger(self, **kw):
        env = Environment()
        ledger = QuotaLedger(env)
        ledger.add_tenant(TenantSpec(tenant_id=0, **kw))
        return ledger

    def test_charge_and_release_round_trip(self):
        ledger = self._ledger()
        ledger.charge(0, 5_000)
        ledger.charge(0, 2_000)
        assert ledger.used_bytes(0) == 7_000
        assert ledger.used_files(0) == 2
        ledger.release(0, 5_000)
        assert ledger.used_bytes(0) == 2_000
        assert ledger.used_files(0) == 1

    def test_byte_quota_boundary(self):
        ledger = self._ledger(quota_bytes=10_000)
        ledger.charge(0, 8_000)
        assert not ledger.would_exceed(0, 2_000)
        assert ledger.would_exceed(0, 2_001)

    def test_file_quota(self):
        ledger = self._ledger(quota_files=1)
        assert not ledger.would_exceed(0, 1)
        ledger.charge(0, 1)
        assert ledger.would_exceed(0, 1)

    def test_unknown_tenant_is_a_no_op(self):
        ledger = self._ledger()
        assert not ledger.would_exceed(9, 10**9)
        ledger.charge(9, 1_000)
        ledger.release(9, 1_000)
        ledger.refuse(9)
        assert ledger.used_bytes(9) == 0
        assert ledger.refusals(9) == 0

    def test_refusals_tally(self):
        ledger = self._ledger(quota_bytes=0)
        ledger.refuse(0)
        ledger.refuse(0)
        assert ledger.refusals(0) == 2


def _fleet(mode, tenants=(), n_nodes=2, seed=0, spans=None, **spec_overrides):
    """A tiny 2-node fleet: 2 MB of cache per server, 4 MB fleet-wide."""
    overrides = dict(TENANCY_SPEC_OVERRIDES, cache_fraction=0.2, **spec_overrides)
    spec = fault_spec(None, **overrides)
    env, dep, _pfs = build_deployment(spec, n_nodes, seed, spans=spans)
    return env, dep, TenantFleet(dep, mode=mode, tenants=tenants)


def _sweep(env, fleet, spec, node=0, passes=1):
    """Read the tenant's whole dataset ``passes`` times from ``node``."""

    def reader():
        cli = fleet.client(node, spec.tenant_id)
        for _ in range(passes):
            for path, size in spec.files():
                yield from cli.read_file(path, size, node)

    env.run(env.process(reader(), name=f"tenancy.sweep.t{spec.tenant_id}"))


VICTIM = TenantSpec(tenant_id=0, kind="inference", n_files=4, file_size=100_000)
AGGRESSOR = TenantSpec(tenant_id=1, kind="training", n_files=60, file_size=100_000)


class TestFleetArbitration:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            _fleet("bogus")

    def test_state_split_per_job_clients_fleet_wide_ledger(self):
        env, dep, fleet = _fleet("shared", tenants=(VICTIM, AGGRESSOR))
        # per-job state: one client per (node, tenant), distinct from the
        # classic bare-node client, memoized per key
        t0 = fleet.client(0, 0)
        t1 = fleet.client(0, 1)
        assert t0 is not t1
        assert t0 is fleet.client(0, 0)
        assert t0 is not dep.client(0)
        built = sorted(k for k in dep._clients if isinstance(k, tuple))
        assert built == [(0, 0), (0, 1)]
        # fleet-wide state: one ledger shared by every per-cache arbiter
        assert len(fleet.arbiters) == 2
        assert all(arb.ledger is fleet.ledger for arb in fleet.arbiters)

    def test_tenant_metric_scope(self):
        rec = SpanRecorder()
        env, dep, fleet = _fleet("shared", tenants=(VICTIM,), spans=rec)
        _sweep(env, fleet, VICTIM)
        # the tenant view comes from the spans' tenant tag; the counter
        # stays the fleet aggregate
        assert compute_slo(rec.fold(), window=1.0).tenants[0].n_reads == VICTIM.n_files
        assert dep.metrics.counter("hvac.client_opens").value == VICTIM.n_files

    def test_shared_lru_sacrifices_the_victim(self):
        env, dep, fleet = _fleet("shared", tenants=(VICTIM, AGGRESSOR))
        _sweep(env, fleet, VICTIM, node=0)
        assert fleet.occupancy()[0] == VICTIM.dataset_bytes
        _sweep(env, fleet, AGGRESSOR, node=1)
        # 6 MB of thrash through 4 MB of shared cache: the cold victim
        # entries are the global LRU head and get evicted
        assert fleet.occupancy()[0] < VICTIM.dataset_bytes

    def test_dedicated_slabs_cap_the_aggressor(self):
        env, dep, fleet = _fleet("dedicated", tenants=(VICTIM, AGGRESSOR))
        _sweep(env, fleet, VICTIM, node=0)
        _sweep(env, fleet, AGGRESSOR, node=1)
        # equal weights: each tenant owns half of every cache (1 MB per
        # server, 2 MB fleet-wide), and evictions never cross slabs
        assert fleet.occupancy()[0] == VICTIM.dataset_bytes
        assert fleet.occupancy()[1] <= fleet.capacity_bytes // 2

    def test_weighted_fair_protects_the_under_watermark_tenant(self):
        env, dep, fleet = _fleet("weighted", tenants=(VICTIM, AGGRESSOR))
        _sweep(env, fleet, VICTIM, node=0)
        _sweep(env, fleet, AGGRESSOR, node=1)
        # the victim sits far under its watermark; every eviction the
        # aggressor forces is charged to the most-over-water tenant —
        # the aggressor itself
        assert fleet.occupancy()[0] == VICTIM.dataset_bytes

    def test_quota_refuses_inserts_beyond_the_cap(self):
        capped = TenantSpec(
            tenant_id=0, kind="inference", n_files=4, file_size=100_000,
            quota_bytes=200_000,
        )
        env, dep, fleet = _fleet("shared", tenants=(capped,))
        _sweep(env, fleet, capped)
        assert fleet.occupancy()[0] <= 200_000
        assert fleet.ledger.refusals(0) > 0

    def test_occupancy_table(self):
        env, dep, fleet = _fleet("dedicated", tenants=(VICTIM, AGGRESSOR))
        _sweep(env, fleet, VICTIM)
        occ = fleet.occupancy()
        assert list(occ) == [0, 1]
        assert occ[0] == VICTIM.dataset_bytes
        assert occ[1] == 0


class TestClientKeyOrder:
    def test_mixed_key_sorting(self):
        keys = [(1, 0), 3, (0, 2), 10, 2, (0, 1)]
        ordered = sorted(keys, key=client_key_order)
        assert ordered == [(0, 1), (0, 2), (1, 0), 2, 3, 10]


class TestAdmission:
    def _controller(self, **kw):
        return AdmissionController(Environment(), 1_000, **kw)

    def _spec(self, tid, demand=600):
        return TenantSpec(tenant_id=tid, quota_bytes=demand)

    def test_demand_prefers_quota_over_dataset(self):
        assert AdmissionController.demand_of(self._spec(0, 600)) == 600
        free = TenantSpec(tenant_id=1, n_files=3, file_size=100)
        assert AdmissionController.demand_of(free) == 300

    def test_admit_queue_degrade_progression(self):
        adm = self._controller(queue_limit=1, degrade_ok=True)
        assert adm.request(self._spec(0)).action == "admit"
        queued = adm.request(self._spec(1))
        assert queued.action == "queue"
        assert queued.event is not None
        assert adm.request(self._spec(2)).action == "degrade"
        assert adm.counts() == {"admit": 1, "queue": 1, "degrade": 1, "reject": 0}

    def test_reject_only_when_degrade_is_off(self):
        adm = self._controller(queue_limit=0, degrade_ok=False)
        assert adm.request(self._spec(0)).action == "admit"
        assert adm.request(self._spec(1)).action == "reject"

    def test_demand_above_the_budget_is_never_queued(self):
        # a queued job that can never fit would block the queue forever
        adm = self._controller(queue_limit=2, degrade_ok=True)
        assert adm.request(self._spec(0, 1_001)).action == "degrade"
        adm = self._controller(queue_limit=2, degrade_ok=False)
        assert adm.request(self._spec(0, 600)).action == "admit"
        assert adm.request(self._spec(1, 1_001)).action == "reject"
        assert adm.request(self._spec(2, 1_000)).action == "queue"

    def test_release_promotes_the_queue_head(self):
        adm = self._controller(queue_limit=1)
        adm.request(self._spec(0))
        queued = adm.request(self._spec(1))
        assert not queued.event.triggered
        adm.release(0)
        assert queued.event.triggered
        assert adm.reserved == 600

    def test_overcommit_widens_the_budget(self):
        adm = AdmissionController(Environment(), 1_000, overcommit=2.0)
        assert adm.request(self._spec(0, 900)).action == "admit"
        assert adm.request(self._spec(1, 900)).action == "admit"

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(Environment(), 0)
        with pytest.raises(ValueError):
            AdmissionController(Environment(), 1_000, overcommit=0.0)


class TestArrivals:
    def test_sample_jobs_is_a_pure_function_of_the_seed(self):
        a = sample_jobs(seed=11, n_jobs=6, n_nodes=3)
        b = sample_jobs(seed=11, n_jobs=6, n_nodes=3)
        assert a == b
        assert sample_jobs(seed=12, n_jobs=6, n_nodes=3) != a
        assert [j.spec.tenant_id for j in a] == list(range(6))
        times = [j.time for j in a]
        assert times == sorted(times)
        assert all(j.spec.kind in ("training", "inference") for j in a)

    def test_job_plan_training_sweeps_in_order(self):
        spec = TenantSpec(tenant_id=0, n_files=4, reads=4, epochs=2)
        plans = job_plan(spec, seed=0)
        assert plans == [spec.files(), spec.files()]

    def test_job_plan_inference_is_hot_skewed_and_seeded(self):
        spec = TenantSpec(
            tenant_id=0, kind="inference", n_files=8, reads=50,
            hot_fraction=0.8,
        )
        plans = job_plan(spec, seed=0)
        assert plans == job_plan(spec, seed=0)
        hot = spec.files()[0]
        hot_reads = sum(1 for pick in plans[0] if pick == hot)
        assert hot_reads > 25

    def test_run_jobs_replays_bit_for_bit(self):
        def one_run():
            jobs = sample_jobs(seed=4, n_jobs=5, n_nodes=2)
            env, dep, fleet = _fleet("weighted")
            adm = fleet.make_admission(overcommit=1.0, queue_limit=2)
            records = run_jobs(env, dep, fleet, jobs, adm, seed=4)
            return env.now, [(r.tenant_id, r.action, r.reads) for r in records]

        first, second = one_run(), one_run()
        assert first == second
        _, rows = first
        assert all(action in ("admit", "queue", "degrade") for _, action, _ in rows)
        assert all(reads > 0 for _, _, reads in rows)


class TestIsolationSmoke:
    def test_weighted_dominates_shared_at_smoke_scale(self):
        result = tenancy_isolation(**SMOKE)
        assert set(result.outcomes) == {"shared", "dedicated", "weighted"}
        shared = result.outcomes["shared"]
        weighted = result.outcomes["weighted"]
        assert weighted.victim_p99 < shared.victim_p99
        assert weighted.victim_degraded_fraction < shared.victim_degraded_fraction
        assert result.dominates()
        assert not math.isnan(shared.victim_p50)
        assert result.admission_rows
        assert "Hot-storm isolation" in result.render()

    def test_same_seed_runs_are_identical(self):
        t1, t2 = EventTrace(), EventTrace()
        r1 = tenancy_isolation(**SMOKE, trace=t1)
        r2 = tenancy_isolation(**SMOKE, trace=t2)
        assert t1.fingerprint == t2.fingerprint
        assert r1.mode_log() == r2.mode_log()
        assert r1.rows() == r2.rows()

    def test_write_artifacts(self, tmp_path):
        result = tenancy_isolation(**SMOKE)
        paths = result.write_artifacts(str(tmp_path))
        assert set(paths) == {"report", "windows"}
        report = (tmp_path / "report.txt").read_text()
        assert "weighted-fair strictly dominates" in report
        windows = (tmp_path / "windows.log").read_text()
        assert windows == result.mode_log()
        assert "== weighted ==" in windows
