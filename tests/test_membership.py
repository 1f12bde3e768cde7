"""Membership & repair subsystem: the SWIM view lattice, fault-aware
remapping, gossip spread, peer-to-peer repair, recovery determinism,
correlated fault schedules, and per-segment retry budgets."""

import pytest

from repro.cluster import Allocation, RateLimiter, TESTING
from repro.core import HVACDeployment
from repro.core.hashing import ModuloPlacement
from repro.experiments.membership import membership_comparison
from repro.experiments.membership import _collect_transitions
from repro.faults import FaultSchedule, crash
from repro.membership import (
    ALIVE,
    DEAD,
    RECOVERING,
    SUSPECTED,
    MembershipView,
    RemappedPlacement,
)
from repro.simcore import AllOf, Environment, EventTrace, SimulationError
from repro.storage import GPFS

#: fast-detection HVAC overrides shared by every deployment test here
FAST = dict(
    rpc_timeout=0.02,
    rpc_max_retries=4,
    rpc_backoff_base=1e-4,
    rpc_backoff_cap=1e-3,
    suspect_after=2,
    probation_period=0.02,
    replication_factor=2,
    membership_enabled=True,
    gossip_interval=0.005,
    suspect_to_dead=0.03,
)

FILES = [(f"/d/f{i}", 25_000) for i in range(16)]


def build(n_nodes=4, seed=0, trace=None, **hvac):
    env = Environment()
    if trace is not None:
        env.observe(trace)
    spec = TESTING.with_hvac(**{**FAST, **hvac})
    alloc = Allocation(env, spec, n_nodes=n_nodes)
    pfs = GPFS(env, spec.pfs, n_nodes, spec.network.nic_bandwidth)
    dep = HVACDeployment(alloc, pfs, seed=seed)
    return env, dep, pfs


def run_epoch(env, dep, node_ids, files=FILES):
    def reader(node):
        cli = dep.client(node)
        for path, size in files:
            yield from cli.read_file(path, size, node)

    procs = [env.process(reader(n)) for n in node_ids]

    def wait():
        yield AllOf(env, procs)

    env.run(env.process(wait()))


def advance(env, dt):
    env.run(until=env.timeout(dt))


def drain_repair(env, dep, max_seconds=5.0):
    deadline = env.now + max_seconds
    while dep.repair is not None and dep.repair.in_flight > 0:
        if env.now >= deadline:
            raise AssertionError("repair never drained")
        advance(env, 1e-3)


# ---------------------------------------------------------------------------
class TestMembershipView:
    def view(self, n=4, probation=0.02, dead_after=0.05):
        env = Environment()
        return env, MembershipView(
            env, n, owner="t", probation=probation, dead_after=dead_after
        )

    def test_higher_incarnation_always_wins(self):
        env, v = self.view()
        assert v.merge(((1, 0, DEAD, 0.0),)) == 1
        assert v.state_of(1) == DEAD
        # the server's refutation at a later incarnation overrides death
        assert v.merge(((1, 1, ALIVE, 0.0),)) == 1
        assert v.state_of(1) == ALIVE

    def test_equal_incarnation_worse_state_wins(self):
        env, v = self.view()
        assert v.merge(((2, 0, SUSPECTED, 0.0),)) == 1
        # second-hand "it's fine" at the same incarnation cannot clear it
        assert v.merge(((2, 0, ALIVE, 0.0),)) == 0
        assert v.state_of(2) == SUSPECTED

    def test_equal_entry_only_refreshes_stamp(self):
        env, v = self.view()
        v.merge(((2, 0, SUSPECTED, 0.0),))
        logged = len(v.transitions)
        v.merge(((2, 0, SUSPECTED, 7.5),))
        assert len(v.transitions) == logged  # no new transition
        assert v.entry(2)[2] == 7.5  # but probation re-armed

    def test_suspected_escalates_to_dead_after_timeout(self):
        env, v = self.view(dead_after=0.05)
        v.on_suspect(3)
        assert v.state_of(3) == SUSPECTED
        advance(env, 0.06)
        assert v.state_of(3) == DEAD
        assert v.transitions[-1][5] == "escalation"

    def test_repeated_suspicion_does_not_reset_escalation_clock(self):
        env, v = self.view(dead_after=0.05)
        v.on_suspect(3)
        advance(env, 0.03)
        v.on_suspect(3)  # fresh strikes re-arm probation, not the onset
        advance(env, 0.03)
        assert v.state_of(3) == DEAD

    def test_routable_honours_probation(self):
        env, v = self.view(probation=0.02, dead_after=10.0)
        v.on_suspect(1)
        assert not v.routable(1)
        advance(env, 0.021)
        assert v.routable(1)  # the next read doubles as the re-probe
        assert not v.routable(1) or v.state_of(1) == SUSPECTED

    def test_dead_not_routable_recovering_not_placeable(self):
        env, v = self.view()
        v.merge(((0, 1, DEAD, 0.0),))
        v.merge(((1, 1, RECOVERING, 0.0),))
        assert not v.routable(0)
        assert v.routable(1)  # recovering answers pings/announcements
        assert not v.placeable(0)
        assert not v.placeable(1)
        assert v.probe_targets() == [0, 1]

    def test_self_report_equal_state_is_stamp_only(self):
        env, v = self.view()
        v.self_report(0, 0, ALIVE)
        assert v.transitions == []

    def test_digest_ships_only_non_boot_entries(self):
        env, v = self.view()
        v.on_suspect(2)
        digest = v.digest()
        assert [entry[0] for entry in digest] == [2]
        assert MembershipView.digest_bytes(digest) == 8 + 24
        # a fresh view adopts the digest wholesale
        env2, v2 = self.view()
        assert v2.merge(digest) == 1
        assert v2.state_of(2) == SUSPECTED


# ---------------------------------------------------------------------------
class TestRemappedPlacement:
    def make(self, n=4, rf=2):
        env = Environment()
        view = MembershipView(env, n, probation=0.02, dead_after=10.0)
        base = ModuloPlacement(n, rf)
        return env, view, base, RemappedPlacement(base, view)

    def test_identity_while_everyone_is_alive(self):
        _, _, base, remapped = self.make()
        for i in range(10):
            assert remapped.replicas(f"/f{i}") == base.replicas(f"/f{i}")

    def test_dead_server_ranges_move_to_ring_successors(self):
        _, view, base, remapped = self.make()
        view.merge(((1, 1, DEAD, 0.0),))
        for i in range(20):
            repl = remapped.replicas(f"/f{i}")
            assert 1 not in repl
            assert len(repl) == len(base.replicas(f"/f{i}"))
            assert len(set(repl)) == len(repl)

    def test_unmaps_on_recovery(self):
        _, view, base, remapped = self.make()
        view.merge(((1, 1, DEAD, 0.0),))
        assert any(
            remapped.replicas(f"/f{i}") != base.replicas(f"/f{i}")
            for i in range(20)
        )
        view.merge(((1, 2, ALIVE, 0.0),))
        for i in range(20):
            assert remapped.replicas(f"/f{i}") == base.replicas(f"/f{i}")

    def test_remap_is_deterministic(self):
        _, view, _, remapped = self.make(n=6, rf=2)
        view.merge(((2, 1, DEAD, 0.0), (3, 1, DEAD, 0.0)))
        first = [remapped.replicas(f"/f{i}") for i in range(30)]
        second = [remapped.replicas(f"/f{i}") for i in range(30)]
        assert first == second

    def test_all_dead_returns_base_set(self):
        _, view, base, remapped = self.make(n=3, rf=2)
        view.merge(tuple((sid, 1, DEAD, 0.0) for sid in range(3)))
        # degenerate cluster: fall back to the base set so the read path
        # still has someone to strike (and then degrade to PFS)
        assert remapped.replicas("/f0") == base.replicas("/f0")

    def test_delegates_extensions_to_base(self):
        _, _, base, remapped = self.make()
        assert remapped.home("/f0") == remapped.replicas("/f0")[0]
        assert remapped.base is base


# ---------------------------------------------------------------------------
class TestGossipSpread:
    def test_suspicion_reaches_idle_clients(self):
        env, dep, _ = build(n_nodes=4)
        clients = [dep.client(n) for n in range(4)]
        run_epoch(env, dep, range(4))  # warm + everyone joins gossip
        dep.inject(FaultSchedule([crash(0.0, 1)]))
        run_epoch(env, dep, [0])  # only client 0 observes strikes
        advance(env, 10 * dep.spec.hvac.gossip_interval)
        # clients 2/3 never contacted server 1, yet believe it down
        for cli in clients[2:]:
            assert cli.view.state_of(1) in (SUSPECTED, DEAD)
            assert any(
                why in ("gossip", "piggyback")
                for *_, why in cli.view.transitions
            )

    def test_refutation_spreads_after_recovery(self):
        env, dep, _ = build(n_nodes=4)
        clients = [dep.client(n) for n in range(4)]
        run_epoch(env, dep, range(4))
        dep.inject(FaultSchedule([crash(0.0, 1)]))
        run_epoch(env, dep, range(4))
        dep.recover_node(1)
        drain_repair(env, dep)
        run_epoch(env, dep, range(4))
        advance(env, 10 * dep.spec.hvac.gossip_interval)
        for cli in clients:
            assert cli.view.state_of(1) == ALIVE
            assert cli.view.incarnation(1) >= 1


# ---------------------------------------------------------------------------
class TestRateLimiter:
    def test_paces_to_configured_rate(self):
        env = Environment()
        limiter = RateLimiter(env, rate=1000.0)
        done = []

        def flow():
            yield from limiter.throttle(500)
            done.append(env.now)
            yield from limiter.throttle(500)
            done.append(env.now)

        env.run(env.process(flow()))
        assert done == [pytest.approx(0.5), pytest.approx(1.0)]

    def test_zero_rate_is_unthrottled(self):
        env = Environment()
        limiter = RateLimiter(env, rate=0.0)

        def flow():
            yield from limiter.throttle(10**9)
            return env.now

        assert env.run(env.process(flow())) == 0.0

    @pytest.mark.parametrize("rate", [-1.0, float("nan")])
    def test_a_rate_below_zero_or_nan_is_rejected(self, rate):
        # A NaN rate would make the reservation NaN for good
        # (max(nan, now) is nan), and every flow would pass unpaced.
        with pytest.raises(SimulationError, match="rate must be >= 0"):
            RateLimiter(Environment(), rate=rate)


class TestRepair:
    def crash_and_recover(self, bandwidth=0.0):
        env, dep, _ = build(n_nodes=4, repair_bandwidth=bandwidth)
        dep.repair.attach_manifest(FILES)
        run_epoch(env, dep, range(4))  # warm every cache
        dep.inject(FaultSchedule([crash(0.0, 1)]))
        run_epoch(env, dep, range(4))
        dep.recover_node(1)
        drain_repair(env, dep)
        return env, dep

    def test_repair_restores_the_lost_shard_from_peers(self):
        env, dep = self.crash_and_recover()
        (report,) = dep.repair.reports
        assert not report.aborted
        assert report.bytes_from_peers > 0
        server = dep.servers[1]
        assert server.member_state == "alive"
        assert server.incarnation >= 2  # recover bump + repair bump
        restored = [
            path
            for path, _ in FILES
            if 1 in dep.placement.replicas(path) and server.cache.contains(path)
        ]
        assert restored, "repair re-warmed none of the shard"

    def test_throttle_bounds_repair_rate(self):
        fast_env, fast_dep = self.crash_and_recover(bandwidth=0.0)
        slow_env, slow_dep = self.crash_and_recover(bandwidth=1e6)
        (fast,) = fast_dep.repair.reports
        (slow,) = slow_dep.repair.reports
        assert slow.total_bytes == fast.total_bytes
        assert slow.seconds >= slow.total_bytes / 1e6 - 1e-9
        assert slow.seconds > fast.seconds

    def test_second_crash_aborts_stale_repair(self):
        env, dep, _ = build(n_nodes=4, repair_bandwidth=1e5)  # glacial
        dep.repair.attach_manifest(FILES)
        run_epoch(env, dep, range(4))
        dep.inject(FaultSchedule([crash(0.0, 1)]))
        run_epoch(env, dep, range(4))
        dep.recover_node(1)
        advance(env, 0.01)  # mid-repair...
        dep.inject(FaultSchedule([crash(0.0, 1)]))  # ...crash again
        advance(env, 0.01)
        dep.recover_node(1)
        drain_repair(env, dep, max_seconds=30.0)
        assert any(r.aborted for r in dep.repair.reports)
        assert dep.servers[1].member_state == "alive"


# ---------------------------------------------------------------------------
class TestRecoveryDeterminism:
    def scenario(self, seed=0):
        trace = EventTrace()
        env, dep, _ = build(n_nodes=4, seed=seed, trace=trace)
        dep.repair.attach_manifest(FILES)
        run_epoch(env, dep, range(4))
        dep.inject(FaultSchedule([crash(0.0, 1)]))
        run_epoch(env, dep, range(4))
        dep.recover_node(1)
        drain_repair(env, dep)
        run_epoch(env, dep, range(4))
        dep.teardown()
        return trace.fingerprint, _collect_transitions(dep)

    def test_same_seed_same_events_and_transitions(self):
        fp1, log1 = self.scenario(seed=7)
        fp2, log2 = self.scenario(seed=7)
        assert fp1 == fp2
        assert log1 == log2
        assert log1, "scenario produced no membership transitions"

    def test_transition_log_is_time_ordered(self):
        _, log = self.scenario()
        times = [row[0] for row in log]
        assert times == sorted(times)


# ---------------------------------------------------------------------------
class TestMembershipExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return membership_comparison(
            n_nodes=4,
            n_files=12,
            victims=(1, 2),
            outage_epochs=1,
            windows=6,
            repair_bandwidths=(0.0,),
        )

    def test_full_stack_dominates_detector_only(self, result):
        det = result.outcomes["detector"]
        full = result.outcomes["gossip+remap+repair"]
        assert result.dominates()
        assert full.dup_probes < det.dup_probes
        assert full.degraded_fraction < det.degraded_fraction
        assert full.recovery_penalty < det.recovery_penalty

    def test_render_and_artifacts(self, result, tmp_path):
        text = result.render()
        assert "strictly dominates detector-only" in text
        paths = result.write_artifacts(str(tmp_path))
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "transitions.log").read_text().count("->") > 0
        assert sorted(paths) == ["report", "transitions"]

    def test_detection_latency_measured_in_every_mode(self, result):
        for outcome in result.outcomes.values():
            assert outcome.detect_latency == outcome.detect_latency  # not NaN
            assert outcome.detect_latency >= 0.0


# ---------------------------------------------------------------------------
class TestCorrelatedFaults:
    def test_same_seed_same_schedule(self):
        kw = dict(
            n_nodes=8, seed=5, horizon=1.0, rack_size=4,
            rack_crash_rate=2.0, switch_flaky_rate=1.0,
            burst_spread=0.01, mean_outage=0.05,
        )
        assert (
            FaultSchedule.random(**kw).describe()
            == FaultSchedule.random(**kw).describe()
        )

    def test_rack_burst_covers_the_whole_rack(self):
        sched = FaultSchedule.random(
            n_nodes=8, seed=3, horizon=1.0, rack_size=4,
            rack_crash_rate=3.0, burst_spread=0.01, mean_outage=0.05,
        )
        crashes = [e for e in sched if e.kind == "crash"]
        assert crashes
        # events of one burst share their outage duration
        bursts = {}
        for e in crashes:
            bursts.setdefault(e.duration, []).append(e)
        for members in bursts.values():
            nodes = sorted(e.node for e in members)
            racks = {n // 4 for n in nodes}
            assert len(racks) == 1  # one rack per burst
            assert nodes == list(
                range(min(nodes), min(nodes) + 4)
            )  # ...and all of it
            onsets = [e.time for e in members]
            assert max(onsets) - min(onsets) <= 0.01 + 1e-9

    def test_switch_failure_degrades_every_uplink_pair(self):
        sched = FaultSchedule.random(
            n_nodes=6, seed=11, horizon=1.0, rack_size=2,
            switch_flaky_rate=3.0, mean_outage=0.05,
        )
        flaky = [e for e in sched if e.kind == "flaky_link"]
        assert flaky
        groups = {}
        for e in flaky:
            groups.setdefault(e.duration, []).append(e)
        for members in groups.values():
            links = {e.link for e in members}
            racks = {src // 2 for src, _ in links}
            assert len(racks) == 1  # one switch per event
            rack = racks.pop()
            inside = {rack * 2, rack * 2 + 1}
            expected = {
                (n, o) for n in inside for o in range(6) if o not in inside
            }
            assert links == expected  # every (member, outside) pair

    def test_correlated_rates_require_rack_size(self):
        with pytest.raises(ValueError, match="rack_size"):
            FaultSchedule.random(n_nodes=4, rack_crash_rate=1.0)
        with pytest.raises(ValueError, match="burst_spread"):
            FaultSchedule.random(
                n_nodes=4, rack_size=2, rack_crash_rate=1.0, burst_spread=-1.0
            )
