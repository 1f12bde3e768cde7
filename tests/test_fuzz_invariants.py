"""Every fuzz invariant proven live against a deliberately-broken
deployment.

Each test monkeypatches one real bug *into* the deployment code — a
wedged client, an unbounded retry walk, lossy byte accounting, recovery
that never recovers, a membership view that never re-admits — runs the
ordinary executor + checker, and asserts exactly that invariant fires.
The end-to-end shrink/case-file/replay path rides on the lossy-routing
bug, because it reproduces on every scenario.
"""

import pytest

from repro.cli import main as cli_main
from repro.core import HVACDeployment
from repro.core.client import HVACClient
from repro.faults import FaultEvent, FailureDetector
from repro.fuzz import (
    InvariantConfig,
    Scenario,
    Workload,
    check_observation,
    execute,
    load_case,
    replay_case,
    run_campaign,
    shrink,
)
from repro.membership import MembershipView
from repro.obs import SpanRecorder
from repro.simcore import EventTrace


def small_scenario(**kw) -> Scenario:
    defaults = dict(
        seed=3,
        n_nodes=3,
        n_files=6,
        mean_file_size=20_000,
        workload=Workload(kind="uniform", clients=(0, 2), reads_per_client=6),
    )
    defaults.update(kw)
    return Scenario(**defaults)


def run_and_check(scenario, config=None, second=False):
    config = config or InvariantConfig()
    obs = execute(scenario, config, trace=EventTrace())
    fp = None
    if second:
        fp = execute(scenario, config, trace=EventTrace()).fingerprint
    return check_observation(obs, config, second_fingerprint=fp), obs


class TestHungRead:
    def test_wedged_client_is_caught_not_waited_out(self, monkeypatch):
        scenario = small_scenario()
        warm_reads = len(scenario.workload.clients) * scenario.n_files
        orig = HVACClient.read
        calls = {"n": 0}

        def wedged(self, handle, nbytes):
            calls["n"] += 1
            if calls["n"] > warm_reads:
                yield self.env.timeout(1e6)  # lost wakeup: never resumes
            return (yield from orig(self, handle, nbytes))

        monkeypatch.setattr(HVACClient, "read", wedged)
        report, obs = run_and_check(scenario)
        assert "hung_read" in report.violated
        assert report.margins["hung_read"] == 0.0
        assert obs.aborted
        # the watchdog named the wedged client and interrupted it — the
        # run ended at the deadline, not at t=1e6
        assert obs.epochs[-1].hung_clients
        assert obs.t_end < 100.0

    def test_healthy_run_margin_stays_high(self):
        report, _obs = run_and_check(small_scenario())
        assert "hung_read" not in report.violated
        assert report.margins["hung_read"] > 0.5


class TestRetryBound:
    def test_unbounded_walk_with_deaf_detector(self, monkeypatch):
        # two bugs that together make the retry loop effectively
        # unbounded: the walk ignores its budget, and the detector never
        # accrues strikes (so the dead server stays an approved target)
        orig = HVACClient._forward_read

        def over_budget(self, *args, **kwargs):
            spec = self.spec
            self.spec = spec.with_hvac(
                rpc_max_retries=2 * spec.hvac.rpc_max_retries
            )
            try:
                return (yield from orig(self, *args, **kwargs))
            finally:
                self.spec = spec

        monkeypatch.setattr(HVACClient, "_forward_read", over_budget)
        monkeypatch.setattr(
            FailureDetector, "record_failure", lambda self, sid: None
        )
        scenario = small_scenario(faults=(
            FaultEvent(time=0.0, kind="crash", node=1, duration=None),
        ))
        # generous deadline: the slow walk must register as a retry-loop
        # violation, not get cut short as a hang
        config = InvariantConfig(deadline_slack=30.0)
        report, obs = run_and_check(scenario, config)
        assert "retry_bound" in report.violated
        worst = max(
            v.value for v in report.violations if v.invariant == "retry_bound"
        )
        assert worst > obs.allowed_strikes

    def test_bounded_walk_stays_inside_budget(self):
        scenario = small_scenario(faults=(
            FaultEvent(time=0.0, kind="crash", node=1, duration=None),
        ))
        report, _obs = run_and_check(scenario)
        assert "retry_bound" not in report.violated


class TestReadConservation:
    def test_lost_bytes_are_caught(self, monkeypatch):
        orig = HVACClient._route_bytes

        def lossy(self, root, route, nbytes):
            orig(self, root, route, max(0, nbytes - 999))

        monkeypatch.setattr(HVACClient, "_route_bytes", lossy)
        report, _obs = run_and_check(small_scenario())
        assert "read_conservation" in report.violated
        assert report.margins["read_conservation"] < 1.0
        v = next(v for v in report.violations
                 if v.invariant == "read_conservation")
        assert v.value == v.bound - 999

    def test_invented_bytes_are_caught_too(self, monkeypatch):
        orig = HVACClient._route_bytes

        def inflating(self, root, route, nbytes):
            orig(self, root, route, nbytes + 1)

        monkeypatch.setattr(HVACClient, "_route_bytes", inflating)
        report, _obs = run_and_check(small_scenario())
        assert "read_conservation" in report.violated


class TestDeterminism:
    def test_run_varying_timing_diverges_fingerprints(self, monkeypatch):
        jitter = {"run": 0}
        orig = HVACClient.read

        def jittery(self, handle, nbytes):
            yield self.env.timeout(1e-7 * jitter["run"])
            return (yield from orig(self, handle, nbytes))

        monkeypatch.setattr(HVACClient, "read", jittery)
        scenario = small_scenario()
        config = InvariantConfig()
        jitter["run"] = 1
        obs = execute(scenario, config, trace=EventTrace())
        jitter["run"] = 2
        second = execute(scenario, config, trace=EventTrace()).fingerprint
        report = check_observation(obs, config, second_fingerprint=second)
        assert report.violated == ("determinism",)
        assert report.margins["determinism"] == 0.0

    def test_clean_double_run_passes(self):
        report, _obs = run_and_check(small_scenario(), second=True)
        assert "determinism" not in report.violated
        assert report.margins["determinism"] == 1.0


class TestSLORecovery:
    def test_recovery_that_never_recovers(self, monkeypatch):
        # force-heal calls recover_node; a no-op leaves the server dead,
        # so post-settle reads keep degrading and re-probes keep failing
        monkeypatch.setattr(
            HVACDeployment, "recover_node", lambda self, node_id: None
        )
        scenario = small_scenario(faults=(
            FaultEvent(time=0.0, kind="crash", node=1, duration=None),
        ))
        report, obs = run_and_check(scenario)
        assert "slo_recovery" in report.violated
        assert report.margins["slo_recovery"] == 0.0
        # the detector-transition evidence: failed re-probes after the
        # point where every fault was (supposedly) healed
        late_fails = [
            (t, owner, sid)
            for t, owner, kind, sid in obs.detector_transitions
            if kind == "reprobe_fail" and t >= obs.t_settled
        ]
        assert late_fails

    def test_real_recovery_is_clean(self):
        scenario = small_scenario(faults=(
            FaultEvent(time=0.0, kind="crash", node=1, duration=None),
        ))
        report, _obs = run_and_check(scenario)
        assert "slo_recovery" not in report.violated


class TestRepairConvergence:
    def test_view_that_never_readmits(self, monkeypatch):
        orig = MembershipView.routable
        monkeypatch.setattr(
            MembershipView, "routable",
            lambda self, sid: sid != 0 and orig(self, sid),
        )
        scenario = small_scenario(membership=True, replication=2)
        report, obs = run_and_check(scenario)
        assert "repair_convergence" in report.violated
        assert report.margins["repair_convergence"] == 0.0
        assert any("server 0" in entry for entry in obs.unconverged)

    def test_healthy_membership_converges(self):
        scenario = small_scenario(membership=True, replication=2)
        report, _obs = run_and_check(scenario)
        assert "repair_convergence" not in report.violated


class TestTenantIsolation:
    def _scenario(self, **kw):
        return small_scenario(
            tenants=2,
            tenant_workloads=(
                Workload(kind="hotstorm", clients=(1,), reads_per_client=5),
            ),
            **kw,
        )

    def test_cross_tenant_attribution_is_caught(self, monkeypatch):
        # the bug: the fleet hands tenant 1's reads a client that
        # accounts them to tenant 0 — every metric/SLO scope lies
        orig = HVACDeployment.client

        def mis_scoped(self, node_id, tenant=None):
            cli = orig(self, node_id, tenant=tenant)
            if tenant == 1:
                cli.tenant = 0
            return cli

        monkeypatch.setattr(HVACDeployment, "client", mis_scoped)
        report, _obs = run_and_check(self._scenario())
        assert "tenant_isolation" in report.violated
        assert report.margins["tenant_isolation"] == 0.0
        assert any(
            "owned by" in v.message
            for v in report.violations
            if v.invariant == "tenant_isolation"
        )

    def test_clean_multi_tenant_run_passes(self):
        report, _obs = run_and_check(self._scenario())
        assert "tenant_isolation" not in report.violated
        assert report.margins["tenant_isolation"] > 0.0

    def test_one_execution_folds_the_span_log_once(self, monkeypatch):
        # retry_bound, read_conservation and tenant_isolation all read
        # the spans; a multi-tenant run reaches all three.  No check
        # assembles the full span tree.
        config = InvariantConfig()
        calls = []
        fold = SpanRecorder.fold

        def counting(self):
            calls.append(self)
            return fold(self)

        def no_tree(self):
            raise AssertionError("spans() assembled during a fuzz run")

        monkeypatch.setattr(SpanRecorder, "fold", counting)
        monkeypatch.setattr(SpanRecorder, "spans", no_tree)
        obs = execute(self._scenario(), config, trace=EventTrace())
        report = check_observation(obs, config)
        assert len(calls) == 1
        assert {"retry_bound", "read_conservation", "tenant_isolation"} <= set(
            report.margins
        )

    def test_margin_narrows_when_a_fault_lands_on_one_tenant(self):
        # a mid-epoch crash degrades whichever tenant sits on the dead
        # node: not a violation, but the degraded-fraction spread must
        # pull the margin below a fault-free run's
        clean, _ = run_and_check(self._scenario())
        faulted, _ = run_and_check(self._scenario(faults=(
            FaultEvent(time=0.0, kind="crash", node=1, duration=0.03),
        )))
        assert "tenant_isolation" not in faulted.violated
        assert (faulted.margins["tenant_isolation"]
                <= clean.margins["tenant_isolation"])


class TestShrinkAndReplayEndToEnd:
    """The lossy-routing bug through the whole pipeline: campaign ->
    violation -> shrink -> case file -> replay (library and CLI)."""

    @pytest.fixture()
    def lossy(self, monkeypatch):
        orig = HVACClient._route_bytes

        def lossy(self, root, route, nbytes):
            orig(self, root, route, max(0, nbytes - 999))

        monkeypatch.setattr(HVACClient, "_route_bytes", lossy)

    def test_case_file_written_shrunk_and_replayable(self, lossy, tmp_path,
                                                     capsys):
        config = InvariantConfig(max_shrink_checks=10, determinism_every=0)
        result = run_campaign(
            runs=1, seed=21, corpus_dir=str(tmp_path), config=config
        )
        assert result.n_violations == 1
        assert len(result.case_paths) == 1
        case = load_case(result.case_paths[0])
        assert case["digest"] in result.case_paths[0]
        assert "read_conservation" in {
            v["invariant"] for v in case["violations"]
        }
        shrunk = case["shrunk"]
        assert shrunk is not None
        # the shrinker made the repro strictly smaller
        removed = shrunk["removed"]
        assert sum(removed.values()) > 0
        assert shrunk["scenario"]["n_files"] <= case["scenario"]["n_files"]

        # library replay: the bug is still patched in, so the shrunk
        # scenario reproduces the recorded invariant
        report, expected, _scenario = replay_case(result.case_paths[0])
        assert "read_conservation" in expected
        assert set(expected) <= set(report.violated)

        # CLI replay: same contract, exit code 0
        rc = cli_main(["fuzz", "--replay", result.case_paths[0]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reproduced" in out

    def test_direct_shrink_reaches_a_small_core(self, lossy):
        scenario = small_scenario(
            epochs=2,
            faults=(
                FaultEvent(time=0.0, kind="degrade", node=0, duration=0.01,
                           factor=2.0),
                FaultEvent(time=0.005, kind="degrade", node=1, duration=0.01,
                           factor=2.0),
            ),
        )
        config = InvariantConfig(max_shrink_checks=40)
        result = shrink(scenario, ("read_conservation",), config)
        # the bug needs no faults, no second client, no extra files
        assert result.shrunk.faults == ()
        assert len(result.shrunk.workload.clients) == 1
        assert result.shrunk.n_files == 1
        assert result.shrunk.epochs == 1
        assert "read_conservation" in result.report.violated

    def test_replay_without_the_bug_reports_not_reproduced(
            self, tmp_path, capsys, monkeypatch):
        # write a case under the bug...
        orig = HVACClient._route_bytes

        def lossy(self, root, route, nbytes):
            orig(self, root, route, max(0, nbytes - 999))

        monkeypatch.setattr(HVACClient, "_route_bytes", lossy)
        config = InvariantConfig(max_shrink_checks=4, determinism_every=0)
        result = run_campaign(
            runs=1, seed=21, corpus_dir=str(tmp_path), config=config
        )
        monkeypatch.setattr(HVACClient, "_route_bytes", orig)
        # ...then replay on the fixed deployment: the case no longer
        # reproduces, and the CLI says so (the "did my fix work" flow)
        rc = cli_main(["fuzz", "--replay", result.case_paths[0]])
        out = capsys.readouterr().out
        assert rc == 2
        assert "NOT reproduced" in out
