"""Tests for the fault-injection subsystem and the failure detector:
schedules, the injector, gray failures, and oracle-free liveness."""

import inspect

import pytest

import repro.core.client as client_mod
from repro.cluster import Allocation, TESTING
from repro.core import HVACDeployment
from repro.experiments.resilience import fault_matrix, resilience_sweep
from repro.experiments.comparison import (
    build_deployment,
    dataset_files,
    fault_spec,
    run_epoch,
)
from repro.faults import (
    FailureDetector,
    FaultEvent,
    FaultSchedule,
    Injector,
    crash,
    degrade,
    flaky_link,
    flap,
    hang,
    partition,
)
from repro.faults.detector import PROBATION_CAP_FACTOR
from repro.simcore import AllOf, Environment
from repro.storage import GPFS

FAST_DETECT = dict(
    rpc_timeout=0.02,
    rpc_backoff_base=1e-4,
    rpc_backoff_cap=1e-3,
    suspect_after=2,
    probation_period=0.05,
)


def build(n_nodes=4, **hvac):
    env = Environment()
    spec = TESTING.with_hvac(**{**FAST_DETECT, **hvac})
    alloc = Allocation(env, spec, n_nodes=n_nodes)
    pfs = GPFS(env, spec.pfs, n_nodes, spec.network.nic_bandwidth)
    dep = HVACDeployment(alloc, pfs)
    return env, dep, pfs


FILES = [(f"/d/f{i}", 25_000) for i in range(24)]


def epoch_proc(env, dep, node_ids, files=FILES):
    def reader(node):
        cli = dep.client(node)
        for path, size in files:
            yield from cli.read_file(path, size, node)

    procs = [env.process(reader(n)) for n in node_ids]

    def wait():
        yield AllOf(env, procs)

    return env.process(wait())


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "meteor", node=0)

    def test_node_faults_require_node(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "crash")

    def test_flaky_link_requires_link(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "flaky_link", node=0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "crash", node=0)
        with pytest.raises(ValueError):
            FaultEvent(0.0, "degrade", node=0, factor=0.5)
        with pytest.raises(ValueError):
            FaultEvent(0.0, "flaky_link", link=(0, 1), drop_prob=1.5)
        nan = float("nan")
        for kw in (
            dict(time=nan),
            dict(duration=nan),
            dict(factor=nan),
            dict(extra_delay=nan),
            dict(period=nan),
        ):
            with pytest.raises(ValueError):
                FaultEvent(**{"time": 0.0, "kind": "degrade", "node": 0, **kw})

    def test_describe_mentions_target(self):
        assert "node 3" in crash(0.5, 3).describe()
        assert "link" in flaky_link(0.5, 0, 1).describe()


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        sched = FaultSchedule([crash(0.5, 1), hang(0.1, 2), flap(0.3, 0)])
        assert [e.time for e in sched] == [0.1, 0.3, 0.5]

    def test_shift_and_concat(self):
        a = FaultSchedule([crash(0.1, 0)])
        b = FaultSchedule([hang(0.0, 1)])
        merged = a + FaultSchedule([hang(0.2, 1)])
        assert [e.time for e in merged] == [0.1, 0.2]
        assert len(merged) == 2

    def test_random_is_deterministic(self):
        kw = dict(crash_rate=5.0, hang_rate=3.0, degrade_rate=2.0,
                  flaky_rate=2.0, horizon=2.0)
        one = FaultSchedule.random(8, seed=7, **kw)
        two = FaultSchedule.random(8, seed=7, **kw)
        assert one.events == two.events
        assert len(one) > 0
        other = FaultSchedule.random(8, seed=8, **kw)
        assert one.events != other.events

    def test_random_zero_rates_empty(self):
        assert len(FaultSchedule.random(4, seed=0)) == 0

    def test_random_flaky_links_never_self(self):
        sched = FaultSchedule.random(2, seed=3, flaky_rate=20.0, horizon=1.0)
        for event in sched:
            assert event.link[0] != event.link[1]


class TestFailureDetector:
    def test_strikes_below_threshold_stay_usable(self):
        env = Environment()
        det = FailureDetector(env, 4, suspect_after=3, probation=1.0)
        det.record_failure(1)
        det.record_failure(1)
        assert det.usable(1)
        assert det.suspects() == []

    def test_blacklist_and_probation_expiry(self):
        env = Environment()
        det = FailureDetector(env, 4, suspect_after=2, probation=1.0)
        det.record_failure(2)
        det.record_failure(2)
        assert not det.usable(2)
        assert det.suspects() == [2]
        env.run(env.timeout(1.5))  # advance the clock past probation
        assert det.usable(2)  # the next request is the re-probe

    def test_success_pardons(self):
        env = Environment()
        det = FailureDetector(env, 4, suspect_after=2, probation=1.0)
        det.record_failure(0)
        det.record_failure(0)
        env.run(env.timeout(2.0))
        det.record_success(0)
        assert det.usable(0)
        assert det.strikes(0) == 0
        assert [k for _, k, _ in det.transitions].count("reprobe_ok") == 1

    def test_repeat_offender_probation_grows_capped(self):
        env = Environment()
        det = FailureDetector(env, 2, suspect_after=1, probation=1.0)
        for _ in range(8):
            det.record_failure(0)
        # capped at probation * cap_factor, not 2**7
        assert det._until[0] <= env.now + PROBATION_CAP_FACTOR + 1e-9

    def test_transitions_suspect_expiry_reprobe_ok(self):
        env = Environment()
        det = FailureDetector(env, 4, suspect_after=2, probation=1.0)
        det.record_failure(2)
        assert det.transitions == []  # one strike is not suspicion
        det.record_failure(2)
        assert det.transitions == [(0.0, "suspect", 2)]
        env.run(env.timeout(1.5))
        assert det.usable(2)  # lazy expiry logs the probation end
        det.record_success(2)  # ...and the re-probe lands
        assert [kind for _t, kind, _sid in det.transitions] == [
            "suspect", "probation_expired", "reprobe_ok"
        ]
        # the expiry is stamped with the probation deadline, not the
        # (later) instant the next request happened to look
        assert det.transitions[1] == (1.0, "probation_expired", 2)

    def test_transitions_failed_reprobe(self):
        env = Environment()
        det = FailureDetector(env, 4, suspect_after=2, probation=1.0)
        det.record_failure(1)
        det.record_failure(1)
        env.run(env.timeout(1.2))
        det.record_failure(1)  # the re-probe itself fails
        kinds = [kind for _t, kind, _sid in det.transitions]
        assert kinds == ["suspect", "probation_expired", "reprobe_fail"]
        assert not det.usable(1)  # back on probation
        # a strike while *still on probation* is not a re-probe outcome
        det.record_failure(1)
        assert [k for _t, k, _sid in det.transitions] == kinds

    def test_transitions_time_ordered_per_server(self):
        env = Environment()
        det = FailureDetector(env, 4, suspect_after=1, probation=0.5)
        det.record_failure(0)
        env.run(env.timeout(0.7))
        det.record_success(0)
        det.record_failure(3)
        for sid in (0, 3):
            times = [t for t, _k, s in det.transitions if s == sid]
            assert times == sorted(times)


class TestInjector:
    def test_crash_applies_at_scheduled_time(self):
        env, dep, _ = build()
        inj = Injector(dep, FaultSchedule([crash(0.01, 2)]))
        inj.start()
        env.run(env.timeout(0.0099))
        assert all(s.alive for s in dep.servers_on_node(2))
        env.run(env.timeout(0.0002))  # the crash lands at 0.01, not later
        assert all(not s.alive for s in dep.servers_on_node(2))

    def test_crash_recover_heals(self):
        env, dep, _ = build()
        dep.inject(FaultSchedule([crash(0.0, 1, recover_after=0.02)]))
        env.run(env.timeout(0.01))
        assert not dep.servers_on_node(1)[0].alive
        env.run(env.timeout(0.02))
        assert dep.servers_on_node(1)[0].alive

    def test_flap_cycles(self):
        env, dep, _ = build()
        dep.inject(FaultSchedule([flap(0.0, 3, period=0.01, cycles=2)]))
        server = dep.servers_on_node(3)[0]
        # down at 0 and 0.02, up at 0.01 and 0.03: sample mid-period
        env.run(env.timeout(0.005))
        states = [server.alive]
        for _ in range(3):
            env.run(env.timeout(0.01))
            states.append(server.alive)
        assert states == [False, True, False, True]
        env.run(env.timeout(0.1))
        assert server.alive

    def test_degrade_throttles_nvme_and_restores(self):
        env, dep, _ = build()
        device = dep.allocation[0].nvme
        dep.inject(FaultSchedule([degrade(0.0, 0, factor=8.0, duration=0.05)]))
        env.run(env.timeout(0.01))
        assert device.slow_factor == 8.0
        env.run(env.timeout(0.1))
        assert device.slow_factor == 1.0

    def test_hang_and_unhang(self):
        env, dep, _ = build()
        dep.inject(FaultSchedule([hang(0.0, 1, duration=0.02)]))
        env.run(env.timeout(0.01))
        assert dep.servers_on_node(1)[0].hung
        assert dep.servers_on_node(1)[0].alive  # hung is not dead
        env.run(env.timeout(0.05))
        assert not dep.servers_on_node(1)[0].hung

    def test_flaky_link_sets_and_clears_fabric_fault(self):
        env, dep, _ = build()
        fabric = dep.allocation.fabric
        dep.inject(FaultSchedule(
            [flaky_link(0.0, 0, 1, drop_prob=1.0, duration=0.02)]
        ))
        env.run(env.timeout(0.01))
        assert fabric._link_state(0, 1)[0] == 1.0
        assert fabric._link_state(1, 0)[0] == 1.0
        env.run(env.timeout(0.05))
        assert fabric._link_state(0, 1)[0] == 0.0

    def test_partition_isolates_node(self):
        env, dep, _ = build()
        fabric = dep.allocation.fabric
        dep.inject(FaultSchedule([partition(0.0, 2, duration=0.02)]))
        env.run(env.timeout(0.01))
        assert fabric._link_state(2, 0)[0] == 1.0
        assert fabric._link_state(1, 2)[0] == 1.0
        env.run(env.timeout(0.05))
        assert fabric._link_state(2, 0)[0] == 0.0

    def test_injector_cannot_start_twice(self):
        env, dep, _ = build()
        inj = Injector(dep, FaultSchedule())
        inj.start()
        with pytest.raises(RuntimeError):
            inj.start()


class TestOracleFreeLiveness:
    def test_client_never_reads_server_alive(self):
        """The §III-H acceptance criterion: liveness decisions come only
        from observed timeouts/errors, never from server state."""
        source = inspect.getsource(client_mod)
        assert ".alive" not in source
        assert "_failed" not in source

    def test_hung_server_blacklisted_then_epoch_proceeds(self):
        env, dep, _ = build()
        env.run(epoch_proc(env, dep, [0]))  # warm
        dep.hang_node(1)
        env.run(epoch_proc(env, dep, [0]))
        cli = dep.client(0)
        hung_sids = [s.server_id for s in dep.servers_on_node(1)]
        # The hung node was suspected via timeouts alone...
        assert any(k == "suspect" for _, k, _ in cli.detector.transitions)
        assert dep.metrics.counter("hvac.client_rpc_timeouts").value >= 2
        # ...and at most suspect_after + retry probes were paid.
        assert any(cli.detector.strikes(sid) >= 2 for sid in hung_sids)

    def test_reprobe_after_unhang_restores_service(self):
        env, dep, _ = build()
        env.run(epoch_proc(env, dep, [0]))
        dep.hang_node(1)
        env.run(epoch_proc(env, dep, [0]))  # strikes + blacklist
        dep.unhang_node(1)
        env.run(env.timeout(0.5))  # even grown probation expires
        before = dep.metrics.counter("hvac.client_pfs_fallback").value
        env.run(epoch_proc(env, dep, [0]))
        after = dep.metrics.counter("hvac.client_pfs_fallback").value
        assert after == before  # re-probed server serves its files again
        cli = dep.client(0)
        assert cli.detector.suspects() == []

    def test_failed_server_dedup_waiters_do_not_hang(self):
        """fail() must flush in-flight dedup events: a waiter parked on a
        dead fetch would otherwise stall forever."""
        env, dep, _ = build(n_nodes=2)
        victim = dep.servers[dep.client(0).replica_order("/d/dedup")[0]]

        def reader(node):
            cli = dep.client(node)
            yield from cli.read_file("/d/dedup", 200_000, node)

        # Two clients race the same cold file through one server, which
        # dies while the first fetch is in flight.
        p0 = env.process(reader(0))
        p1 = env.process(reader(1))

        def killer():
            # Wait until the fetch is actually in flight, then kill.
            while not victim._inflight:
                yield env.timeout(1e-5)
            victim.fail()

        env.process(killer())

        def wait():
            yield AllOf(env, [p0, p1])

        env.run(env.process(wait()))  # must terminate (PFS fallback)
        assert victim._inflight == {}

    def test_recover_clears_inflight(self):
        env, dep, _ = build()
        server = dep.servers[0]
        server._inflight["/stale"] = env.event()
        server.fail()
        server.recover()
        assert server._inflight == {}


class TestResilienceExperiments:
    def test_fault_matrix_every_epoch_completes(self):
        matrix = fault_matrix(n_nodes=4, n_files=12)
        assert matrix.kinds == [
            "none", "crash", "crash+recover", "hang", "flap", "degrade",
            "flaky_link",
        ]
        assert all(t > 0 for t in matrix.epoch_seconds)
        none = matrix.epoch_seconds[matrix.kinds.index("none")]
        # Faulty epochs cost more than the healthy one, boundedly.
        assert max(matrix.epoch_seconds) < 1000 * none
        # Hangs are detected by timeouts, crashes by fast errors.
        assert matrix.timeouts[matrix.kinds.index("hang")] >= 1
        assert matrix.fallbacks[matrix.kinds.index("crash")] >= 1

    def test_resilience_sweep_graceful_and_deterministic(self):
        kw = dict(fail_fractions=(0.0, 0.5), n_nodes=4, n_files=12, seed=3)
        one = resilience_sweep(**kw)
        # Degradation is graceful: slower than warm, below the PFS bound.
        assert one.degraded[1] > one.warm[1]
        assert one.degraded[1] < one.pfs_baseline
        assert one.pfs_fallbacks[1] > 0
        # Recovery after probation returns toward warm.
        assert one.recovered[1] < one.degraded[1] * 1.01
        # Bit-for-bit determinism under a fixed seed.
        two = resilience_sweep(**kw)
        assert one.warm == two.warm
        assert one.degraded == two.degraded
        assert one.recovered == two.recovered
        assert one.pfs_fallbacks == two.pfs_fallbacks

    def test_probation_wait_outlasts_the_blacklist(self):
        # The sweep waits out probation with run(until=...) after the
        # degraded epoch has drained every event; the clock must still
        # advance, or the "recovered" epoch starts with every victim
        # blacklisted and re-measures the degraded path.
        spec = fault_spec(None)
        env, dep, _ = build_deployment(spec, 4, seed=3)
        files = dataset_files(12, 25_000)
        run_epoch(env, dep, 4, files)
        victims = [0, 1]
        dep.inject(FaultSchedule([crash(0.0, node) for node in victims]))
        run_epoch(env, dep, 4, files)
        for node in victims:
            dep.recover_node(node)
        clients = [dep.client(node) for node in range(4)]
        assert any(cli.detector.suspects() for cli in clients)
        t0 = env.now
        env.run(until=t0 + 2 * spec.hvac.probation_period)
        assert env.now == t0 + 2 * spec.hvac.probation_period
        assert not any(cli.detector.suspects() for cli in clients)


class TestScheduleDrivenEpochs:
    @pytest.mark.parametrize("schedule", [
        FaultSchedule([crash(0.001, 1)]),
        FaultSchedule([crash(0.001, 1, recover_after=0.01)]),
        FaultSchedule([hang(0.001, 1)]),
        FaultSchedule([flap(0.001, 1, period=0.005, cycles=3)]),
        FaultSchedule([degrade(0.001, 1, factor=16.0)]),
        FaultSchedule([flaky_link(0.001, 0, 1, drop_prob=0.7, duration=0.05)]),
        FaultSchedule([partition(0.001, 1, duration=0.05)]),
    ], ids=["crash", "crash+recover", "hang", "flap", "degrade",
            "flaky_link", "partition"])
    def test_epoch_completes_under_every_fault_type(self, schedule):
        env, dep, _ = build()
        env.run(epoch_proc(env, dep, [0, 1, 2, 3]))  # warm
        dep.inject(schedule)
        env.run(epoch_proc(env, dep, [0, 1, 2, 3]))  # must terminate

    def test_random_schedule_epoch_deterministic(self):
        def run_once():
            env, dep, _ = build(n_nodes=4)
            sched = FaultSchedule.random(
                4, seed=11, crash_rate=20.0, hang_rate=10.0,
                flaky_rate=10.0, horizon=0.5, mean_outage=0.02,
            )
            dep.inject(sched)
            env.run(epoch_proc(env, dep, [0, 1, 2, 3]))
            return env.now

        assert run_once() == run_once()
