"""Fuzzer machinery tests: scenario model, generator, executor,
autopilot, shrinker and campaign — everything except the
deliberately-broken deployments (those live in
``test_fuzz_invariants.py``)."""

import json
from dataclasses import replace

import pytest

from repro.faults import FaultEvent
from repro.fuzz import (
    Autopilot,
    InvariantConfig,
    InvariantReport,
    Scenario,
    ScenarioGenerator,
    WORKLOAD_KINDS,
    Workload,
    check_observation,
    execute,
    run_campaign,
    scenario_digest,
    shrink,
)
from repro.fuzz.campaign import _case_dict
from repro.fuzz.scenario import drop_client, drop_fault, drop_tenant
from repro.simcore import EventTrace, RandomStreams


def tiny_scenario(**kw) -> Scenario:
    """A benign, fast scenario (no faults unless the caller adds some)."""
    defaults = dict(
        seed=5,
        n_nodes=3,
        n_files=6,
        mean_file_size=20_000,
        workload=Workload(kind="uniform", clients=(0, 2), reads_per_client=6),
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestScenarioModel:
    def test_json_round_trip(self):
        s = tiny_scenario(
            size_sigma=0.6,
            faults=(
                FaultEvent(time=0.01, kind="crash", node=1, duration=0.02),
                FaultEvent(time=0.02, kind="flaky_link", link=(0, 2),
                           duration=0.01, drop_prob=0.5),
            ),
        )
        blob = json.dumps(s.to_dict(), sort_keys=True)
        back = Scenario.from_dict(json.loads(blob))
        assert back == s
        assert scenario_digest(back) == scenario_digest(s)

    def test_digest_sensitive_to_content(self):
        s = tiny_scenario()
        assert scenario_digest(s) != scenario_digest(replace(s, seed=6))
        assert scenario_digest(s) != scenario_digest(
            replace(s, workload=replace(s.workload, reads_per_client=7))
        )

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 2 nodes"):
            tiny_scenario(n_nodes=1)
        with pytest.raises(ValueError, match="unknown workload kind"):
            Workload(kind="chaos")
        with pytest.raises(ValueError, match="outside the topology"):
            tiny_scenario(workload=Workload(clients=(0, 9)))
        with pytest.raises(ValueError, match="at least one client"):
            Workload(clients=())

    def test_files_deterministic(self):
        s = tiny_scenario(size_sigma=0.6)
        assert s.files() == s.files()
        assert all(size > 0 for _p, size in s.files())
        flat = tiny_scenario(size_sigma=0.0)
        assert {size for _p, size in flat.files()} == {flat.mean_file_size}

    def test_heal_horizon(self):
        s = tiny_scenario(faults=(
            FaultEvent(time=0.01, kind="crash", node=1, duration=0.03),
            FaultEvent(time=0.02, kind="crash", node=2, duration=None),
            FaultEvent(time=0.01, kind="flap", node=0, period=0.01, cycles=3),
        ))
        # transient: 0.04; permanent: its onset only; flap: 0.01 + 2*0.01*3
        assert s.heal_horizon() == pytest.approx(0.07)
        assert tiny_scenario().heal_horizon() == 0.0

    def test_spec_membership_toggle(self):
        assert tiny_scenario().spec().hvac.membership_enabled is False
        spec = tiny_scenario(membership=True, replication=2).spec()
        assert spec.hvac.membership_enabled is True
        assert spec.hvac.replication_factor == 2

    def test_plans_cover_requested_reads(self):
        s = tiny_scenario()
        plans = s.plans()
        assert set(plans) == set(s.workload.clients)
        for plan in plans.values():
            assert len(plan) == s.workload.reads_per_client
            assert set(plan) <= set(s.files())
        assert s.plans() == plans  # pure function of the scenario

    def test_plans_hotstorm_biased(self):
        s = tiny_scenario(workload=Workload(
            kind="hotstorm", clients=(0,), reads_per_client=40,
            hot_fraction=0.9, hot_file=2,
        ))
        plan = s.plans()[0]
        hot = s.files()[2]
        assert sum(1 for item in plan if item == hot) > len(plan) // 2

    def test_plans_thrash_strided(self):
        s = tiny_scenario(workload=Workload(
            kind="thrash", clients=(1,), reads_per_client=6, stride=5,
        ))
        files = s.files()
        assert s.plans()[1] == [files[(1 + 5 * k) % 6] for k in range(6)]

    def test_shrinker_moves(self):
        s = tiny_scenario(faults=(
            FaultEvent(time=0.01, kind="crash", node=1, duration=0.02),
            FaultEvent(time=0.03, kind="hang", node=2, duration=0.02),
        ))
        assert drop_fault(s, 0).faults == (s.faults[1],)
        assert drop_client(s, 0).workload.clients == (2,)


class TestGenerator:
    def test_sample_is_pure(self):
        gen = ScenarioGenerator(seed=7)
        assert gen.sample(3) == ScenarioGenerator(seed=7).sample(3)
        assert gen.sample(3) != gen.sample(4)
        assert gen.sample(3) != ScenarioGenerator(seed=8).sample(3)

    def test_samples_stay_in_space(self):
        gen = ScenarioGenerator(seed=1)
        kinds = set()
        for i in range(12):
            s = gen.sample(i)
            assert 3 <= s.n_nodes <= 6
            assert s.workload.kind in WORKLOAD_KINDS
            assert all(0 <= c < s.n_nodes for c in s.workload.clients)
            assert Scenario.from_dict(s.to_dict()) == s
            kinds.add(s.workload.kind)
        assert len(kinds) >= 2  # the sampler actually mixes families


class TestExecutor:
    def test_benign_scenario_is_clean(self):
        obs = execute(tiny_scenario(), trace=EventTrace())
        assert not obs.aborted
        assert obs.reads_planned == 12
        assert [ep.hung for ep in obs.epochs] == [False, False]
        assert set(obs.counters) >= {"client_hits", "client_pfs_fallback"}
        report = check_observation(obs, InvariantConfig())
        assert report.ok
        assert "determinism" in report.skipped  # single run
        assert "repair_convergence" in report.skipped  # membership off

    def test_fingerprint_deterministic(self):
        s = tiny_scenario(faults=(
            FaultEvent(time=0.005, kind="crash", node=1, duration=0.02),
        ))
        one = execute(s, trace=EventTrace())
        two = execute(s, trace=EventTrace())
        assert one.fingerprint == two.fingerprint
        report = check_observation(
            one, InvariantConfig(), second_fingerprint=two.fingerprint
        )
        assert "determinism" not in report.violated

    def test_faulted_run_records_detector_evidence(self):
        # the crash fires the instant the measured epoch starts, so the
        # tiny epoch cannot finish before it lands
        s = tiny_scenario(faults=(
            FaultEvent(time=0.0, kind="crash", node=1, duration=0.03),
        ))
        obs = execute(s, trace=EventTrace())
        assert not obs.aborted
        kinds = {kind for _t, _owner, kind, _sid in obs.detector_transitions}
        assert "suspect" in kinds
        assert obs.t_settled >= obs.t_heal
        assert obs.slo is not None

    def test_membership_scenario_converges(self):
        s = tiny_scenario(
            membership=True, replication=2,
            faults=(FaultEvent(time=0.005, kind="crash", node=1,
                               duration=0.03),),
        )
        obs = execute(s, trace=EventTrace())
        report = check_observation(obs, InvariantConfig())
        assert "repair_convergence" not in report.violated
        assert obs.unconverged == []


def multi_scenario(**kw) -> Scenario:
    """A two-tenant variant of :func:`tiny_scenario`."""
    defaults = dict(
        seed=5,
        n_nodes=3,
        n_files=6,
        mean_file_size=20_000,
        workload=Workload(kind="uniform", clients=(0, 2), reads_per_client=6),
        tenants=2,
        tenant_workloads=(
            Workload(kind="hotstorm", clients=(1,), reads_per_client=5),
        ),
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestMultiTenant:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_scenario(tenants=2)  # missing tenant workloads
        with pytest.raises(ValueError):
            multi_scenario(tenant_workloads=(
                Workload(kind="uniform", clients=(7,)),
            ))  # tenant client outside the topology

    def test_namespaces_split_per_tenant(self):
        s = multi_scenario()
        assert all(p.startswith("/pfs/t0/fuzz/") for p, _ in s.files(0))
        assert all(p.startswith("/pfs/t1/fuzz/") for p, _ in s.files(1))
        # single-tenant scenarios keep the exact pre-tenancy paths
        assert all(p.startswith("/pfs/fuzz/") for p, _ in tiny_scenario().files())

    def test_round_trip_and_old_case_dicts_still_load(self):
        s = multi_scenario(size_sigma=0.4)
        blob = json.dumps(s.to_dict(), sort_keys=True)
        assert Scenario.from_dict(json.loads(blob)) == s
        # a pre-tenancy case dict has neither key
        d = tiny_scenario().to_dict()
        d.pop("tenants", None)
        d.pop("tenant_workloads", None)
        assert Scenario.from_dict(d) == tiny_scenario()

    def test_generator_draws_multi_tenant_scenarios(self):
        gen = ScenarioGenerator(seed=7)
        samples = [gen.sample(i) for i in range(40)]
        multi = [s for s in samples if s.tenants > 1]
        assert multi  # the dimension is actually exercised
        for s in multi:
            assert not s.membership  # one dimension at a time
            assert len(s.tenant_workloads) == s.tenants - 1
            for wl in s.tenant_workloads:
                assert wl.kind in WORKLOAD_KINDS
                assert all(0 <= c < s.n_nodes for c in wl.clients)
            assert Scenario.from_dict(s.to_dict()) == s

    def test_executor_runs_all_tenants_deterministically(self):
        s = multi_scenario()
        one = execute(s, trace=EventTrace())
        two = execute(s, trace=EventTrace())
        assert one.fingerprint == two.fingerprint
        assert not one.aborted
        assert one.reads_planned == s.epochs * (2 * 6 + 1 * 5)
        report = check_observation(
            one, InvariantConfig(), second_fingerprint=two.fingerprint
        )
        assert report.ok
        assert "tenant_isolation" in report.margins
        assert 0.0 <= report.margins["tenant_isolation"] <= 1.0

    def test_single_tenant_skips_isolation(self):
        obs = execute(tiny_scenario(), trace=EventTrace())
        report = check_observation(obs, InvariantConfig())
        assert "tenant_isolation" in report.skipped

    def test_drop_tenant_move(self):
        s = multi_scenario()
        d = drop_tenant(s)
        assert d.tenants == 1 and d.tenant_workloads == ()
        assert drop_tenant(d) == d

    def test_shrinker_removes_an_irrelevant_tenant(self):
        # a check that fires regardless of tenants: the extra tenant is
        # not needed for the repro, so the shrinker must drop it
        result = shrink(
            multi_scenario(),
            ("hung_read",),
            check=lambda s: _report({}, violated=("hung_read",)),
        )
        assert result.removed_tenants == 1
        assert result.shrunk.tenants == 1

    def test_case_file_and_summary_count_removed_tenants(self):
        scenario = multi_scenario()
        result = shrink(
            scenario,
            ("hung_read",),
            check=lambda s: _report({}, violated=("hung_read",)),
        )
        case = _case_dict(
            0, 0, "fresh", scenario, InvariantConfig(), result.report,
            "fingerprint", result,
        )
        assert case["shrunk"]["removed"]["tenants"] == 1
        assert "2->1 tenants" in result.summary()


def _report(margins, violated=()):
    from repro.fuzz import InvariantViolation

    rep = InvariantReport(margins=dict(margins))
    for name in violated:
        rep.violations.append(InvariantViolation(name, "boom", 1.0, 0.0))
    return rep


class TestAutopilot:
    def test_near_violation_pool_ordering(self):
        pilot = Autopilot(RandomStreams(0).child("t"))
        a, b, c = (tiny_scenario(seed=s) for s in (1, 2, 3))
        pilot.observe(a, _report({"slo_recovery": 0.7}))
        pilot.observe(b, _report({"slo_recovery": 0.1}))
        pilot.observe(c, _report({"hung_read": 0.0}, violated=("hung_read",)))
        pool = pilot.near_violations()
        # violated entries are excluded; lowest margin first
        assert [e.scenario.seed for e in pool] == [2, 1]

    def test_proposals_replay_exactly(self):
        def drive(pilot):
            gen = ScenarioGenerator(seed=4)
            out = []
            for i in range(6):
                s, origin = pilot.propose(gen, i)
                out.append((scenario_digest(s), origin))
                pilot.observe(s, _report({"slo_recovery": 0.05 * (i + 1)}),
                              origin=origin)
            return out

        one = drive(Autopilot(RandomStreams(9).child("fuzz.autopilot")))
        two = drive(Autopilot(RandomStreams(9).child("fuzz.autopilot")))
        assert one == two
        assert any(origin.startswith("mutate:") for _d, origin in one)

    def test_mutants_stay_in_space(self):
        pilot = Autopilot(RandomStreams(2).child("t"))
        base = tiny_scenario(faults=(
            FaultEvent(time=0.01, kind="crash", node=1, duration=0.02),
        ))
        for i in range(10):
            mutant = pilot.mutate(base, i)
            assert isinstance(mutant, Scenario)  # survived validation
            assert mutant.n_nodes == base.n_nodes
            assert Scenario.from_dict(mutant.to_dict()) == mutant


class TestShrink:
    """The injectable-check tests: exact shrinking semantics without the
    executor's cost.  End-to-end shrinks run in test_fuzz_invariants."""

    @staticmethod
    def _five_fault_case():
        culprit = FaultEvent(time=0.01, kind="crash", node=1, duration=None)
        noise = tuple(
            FaultEvent(time=0.005 * (i + 1), kind="degrade", node=i % 3,
                       duration=0.01, factor=2.0)
            for i in range(4)
        )
        scenario = tiny_scenario(
            n_files=12, epochs=2,
            workload=Workload(kind="uniform", clients=(0, 1, 2),
                              reads_per_client=6),
            faults=noise[:2] + (culprit,) + noise[2:],
        )

        def check(s):
            # the "deployment bug" only the culprit crash tickles
            broken = any(
                ev.kind == "crash" and ev.duration is None for ev in s.faults
            )
            return _report(
                {"hung_read": 0.0 if broken else 1.0},
                violated=("hung_read",) if broken else (),
            )

        return scenario, culprit, check

    def test_five_faults_shrink_to_one_fault_core(self):
        scenario, culprit, check = self._five_fault_case()
        result = shrink(scenario, ("hung_read",), check=check)
        assert result.shrunk.faults == (culprit,)
        assert result.removed_faults == 4
        assert len(result.shrunk.workload.clients) == 1
        assert result.shrunk.n_files == 1
        assert result.shrunk.epochs == 1
        assert result.removed_epochs == 1
        assert set(result.report.violated) == {"hung_read"}
        assert "5->1 faults" in result.summary()

    def test_shrink_is_deterministic(self):
        scenario, _culprit, check = self._five_fault_case()
        one = shrink(scenario, ("hung_read",), check=check)
        two = shrink(scenario, ("hung_read",), check=check)
        assert one.digest == two.digest
        assert one.checks == two.checks
        assert one.shrunk == two.shrunk

    def test_budget_bounds_the_probes(self):
        scenario, _culprit, check = self._five_fault_case()
        calls = [0]

        def counting(s):
            calls[0] += 1
            return check(s)

        cfg = InvariantConfig(max_shrink_checks=3)
        result = shrink(scenario, ("hung_read",), config=cfg, check=counting)
        assert result.checks <= 3
        # the final report may need one extra confirmation call
        assert calls[0] <= 4

    def test_non_repro_candidates_rejected(self):
        # the target invariant must keep firing, not just any invariant
        scenario, _culprit, check = self._five_fault_case()

        def flaky(s):
            return _report({"retry_bound": 0.0}, violated=("retry_bound",))

        result = shrink(scenario, ("hung_read",), check=flaky)
        assert result.shrunk == scenario  # nothing reproduced, no moves


class TestCampaign:
    def test_double_run_identical(self):
        kw = dict(runs=5, seed=11, shrink_failures=False)
        one = run_campaign(**kw)
        two = run_campaign(**kw)
        rows = lambda r: [  # noqa: E731
            (x.index, x.digest, x.origin, x.kind, x.n_faults, x.score,
             x.violated)
            for x in r.runs
        ]
        assert rows(one) == rows(two)
        assert len(one.runs) == 5
        assert one.ok and two.ok  # main's deployment holds the invariants
        assert "5 scenarios, 0 invariant violation(s)" in one.render()

    def test_time_budget_stops_between_runs(self):
        result = run_campaign(runs=50, seed=11, time_budget=1e-9,
                              shrink_failures=False)
        assert result.out_of_budget
        # the budget only trips *between* runs: a prefix still ran
        assert 1 <= len(result.runs) < 50
