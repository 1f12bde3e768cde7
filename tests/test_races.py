"""Sim-time race sanitizer: detection, exemptions, and the clean gate.

The sanitizer's contract has three legs, each pinned here:

1. it *finds* same-timestamp write/write and read/write overlaps on a
   shared-state cell (seeded synthetic fixtures, plus the pre-fix
   repair-manager spawn path as a regression);
2. it *exempts* orderings that are program-defined (causal chains,
   idempotent same-tag writes) so real code isn't drowned in noise;
3. it *observes only*: the membership smoke scenario runs sanitizer-
   clean, with a bit-for-bit identical event-stream fingerprint.
"""

import pytest

from repro.check import RaceSanitizer, run_races
from repro.check.races import membership_smoke
from repro.simcore import Environment, EventTrace


def _sanitized_env():
    env = Environment()
    san = RaceSanitizer()
    env.observe(san)
    return env, san


def _writer(env, cell, at, mode="w", tag=None):
    yield env.timeout(at)
    env.note_access(cell, mode, tag=tag)


class TestDetection:
    def test_same_timestamp_write_write(self):
        env, san = _sanitized_env()
        env.process(_writer(env, "counter", 1.0), name="a")
        env.process(_writer(env, "counter", 1.0), name="b")
        env.run()
        san.finish()
        assert len(san.reports) == 1
        r = san.reports[0]
        assert r.kind == "w/w"
        assert r.cell == "counter" and r.time == 1.0
        assert r.a_seq < r.b_seq

    def test_read_write_conflicts(self):
        env, san = _sanitized_env()
        env.process(_writer(env, "slot", 1.0, mode="r"), name="reader")
        env.process(_writer(env, "slot", 1.0, mode="w"), name="writer")
        env.run()
        san.finish()
        assert len(san.reports) == 1
        assert san.reports[0].kind in ("r/w", "w/r")

    def test_report_carries_both_stacks_and_describes(self):
        env, san = _sanitized_env()
        env.process(_writer(env, "slot", 1.0), name="a")
        env.process(_writer(env, "slot", 1.0), name="b")
        env.run()
        san.finish()
        (r,) = san.reports
        assert any("_writer" in s for s in r.a_sites)
        assert any("_writer" in s for s in r.b_sites)
        text = r.describe()
        assert "same-timestamp race" in text and "slot" in text
        assert "heap insertion sequence" in text

    def test_final_timestamp_needs_finish(self):
        # the last group is only analyzable once no event can join it
        env, san = _sanitized_env()
        env.process(_writer(env, "slot", 1.0), name="a")
        env.process(_writer(env, "slot", 1.0), name="b")
        env.run()
        assert san.reports == []
        san.finish()
        assert len(san.reports) == 1

    def test_repeated_conflict_reported_once(self):
        env, san = _sanitized_env()

        def loop(env):
            for _ in range(5):
                yield env.timeout(1.0)
                env.note_access("slot", "w")

        env.process(loop(env), name="a")
        env.process(loop(env), name="b")
        env.run()
        san.finish()
        assert len(san.reports) == 1  # same structural pair, deduped


class TestExemptions:
    def test_read_read_is_fine(self):
        env, san = _sanitized_env()
        env.process(_writer(env, "slot", 1.0, mode="r"), name="a")
        env.process(_writer(env, "slot", 1.0, mode="r"), name="b")
        env.run()
        san.finish()
        assert san.reports == []

    def test_distinct_cells_are_fine(self):
        env, san = _sanitized_env()
        env.process(_writer(env, "slot.a", 1.0), name="a")
        env.process(_writer(env, "slot.b", 1.0), name="b")
        env.run()
        san.finish()
        assert san.reports == []

    def test_distinct_timestamps_are_fine(self):
        env, san = _sanitized_env()
        env.process(_writer(env, "slot", 1.0), name="a")
        env.process(_writer(env, "slot", 2.0), name="b")
        env.run()
        san.finish()
        assert san.reports == []

    def test_causal_chain_is_program_ordered(self):
        # parent writes, then spawns the child at the same instant: the
        # child's position after the parent is the program's own choice
        env, san = _sanitized_env()

        def child(env):
            env.note_access("slot", "w", tag="child")
            yield env.timeout(0.0)

        def parent(env):
            yield env.timeout(1.0)
            env.note_access("slot", "w", tag="parent")
            env.process(child(env), name="child")

        env.process(parent(env), name="parent")
        env.run()
        san.finish()
        assert san.reports == []

    def test_sibling_spawns_share_a_root(self):
        # one starter spawning both streams (the repair-manager fix
        # pattern): their order is the starter's loop order
        env, san = _sanitized_env()

        def stream(env, tag):
            env.note_access("slot", "w", tag=tag)
            yield env.timeout(0.0)

        def starter(env):
            yield env.timeout(1.0)
            env.process(stream(env, "s1"), name="s1")
            env.process(stream(env, "s2"), name="s2")

        env.process(starter(env), name="starter")
        env.run()
        san.finish()
        assert san.reports == []

    def test_idempotent_same_tag_writes_commute(self):
        env, san = _sanitized_env()
        env.process(_writer(env, "view.m3", 1.0, tag=(3, 1, "dead")), name="a")
        env.process(_writer(env, "view.m3", 1.0, tag=(3, 1, "dead")), name="b")
        env.run()
        san.finish()
        assert san.reports == []

    def test_differing_tags_still_race(self):
        env, san = _sanitized_env()
        env.process(_writer(env, "view.m3", 1.0, tag=(3, 1, "dead")), name="a")
        env.process(_writer(env, "view.m3", 1.0, tag=(3, 2, "alive")), name="b")
        env.run()
        san.finish()
        assert len(san.reports) == 1

    def test_driver_context_access_is_ignored(self):
        env, san = _sanitized_env()
        env.note_access("slot", "w")  # outside any event: program order
        env.process(_writer(env, "slot", 1.0), name="a")
        env.run()
        san.finish()
        assert san.reports == []

    def test_no_sanitizer_note_access_is_noop(self):
        env = Environment()
        env.note_access("slot", "w")  # must not raise


class TestSmokeGate:
    """The in-tree scenario gate: instrumented components run race-free."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_membership_smoke_is_sanitizer_clean(self, seed):
        san = RaceSanitizer()
        membership_smoke(seed=seed, sanitizer=san)
        assert san.reports == [], "\n\n".join(
            r.describe() for r in san.reports
        )

    def test_sanitizer_leaves_fingerprint_unchanged(self):
        plain = EventTrace()
        membership_smoke(seed=0, trace=plain)
        sanitized = EventTrace()
        membership_smoke(seed=0, sanitizer=RaceSanitizer(), trace=sanitized)
        assert plain.count == sanitized.count
        assert plain.fingerprint == sanitized.fingerprint

    def test_smoke_is_deterministic_across_runs(self):
        a, b = EventTrace(), EventTrace()
        membership_smoke(seed=0, trace=a)
        membership_smoke(seed=0, trace=b)
        assert a.fingerprint == b.fingerprint


class TestRepairSpawnRegression:
    """The race the sanitizer surfaced in-tree: burst recoveries used to
    spawn repair streams straight from their callers, so the first
    ``throttle`` order on the shared limiter was pure heap-insertion
    accident.  The batched starter fixed it; keep both directions pinned.
    """

    def test_old_direct_spawn_races_on_the_limiter(self, monkeypatch):
        from repro.membership.repair import RepairManager

        def direct_spawn(self, server):
            self.metrics.counter("repairs_started").incr()
            self.env.process(
                self._repair(server), name=f"repair.s{server.server_id}"
            )

        monkeypatch.setattr(RepairManager, "on_recover", direct_spawn)
        san = RaceSanitizer()
        membership_smoke(seed=0, sanitizer=san)
        assert any(r.cell == "limiter.repair" for r in san.reports)

    def test_batched_starter_is_clean_and_deterministic(self):
        san = RaceSanitizer()
        a = EventTrace()
        membership_smoke(seed=0, sanitizer=san, trace=a)
        assert not any(r.cell == "limiter.repair" for r in san.reports)
        b = EventTrace()
        membership_smoke(seed=0, trace=b)
        assert a.fingerprint == b.fingerprint


class TestQuotaCellRegression:
    """Per-tenant quota counters are sanitizer cells: an unsynchronized
    same-timestamp update to one tenant's ledger must be caught, while
    the real (causally ordered) charge/release paths stay clean."""

    @staticmethod
    def _ledger(env):
        from repro.tenancy import QuotaLedger, TenantSpec

        ledger = QuotaLedger(env)
        ledger.add_tenant(TenantSpec(tenant_id=0, quota_bytes=10_000))
        return ledger

    def test_unsynchronized_charges_race(self):
        env, san = _sanitized_env()
        ledger = self._ledger(env)

        def mover(env):
            yield env.timeout(1.0)
            ledger.charge(0, 2_000)

        env.process(mover(env), name="mover.s0")
        env.process(mover(env), name="mover.s1")
        env.run()
        san.finish()
        assert any(r.cell == "tenancy.quota.t0" for r in san.reports)
        assert any(r.kind == "w/w" for r in san.reports)

    def test_admission_read_racing_a_charge_is_caught(self):
        env, san = _sanitized_env()
        ledger = self._ledger(env)

        def mover(env):
            yield env.timeout(1.0)
            ledger.charge(0, 2_000)

        def admitter(env):
            yield env.timeout(1.0)
            ledger.would_exceed(0, 4_000)

        env.process(mover(env), name="mover.s0")
        env.process(admitter(env), name="admission")
        env.run()
        san.finish()
        assert any(
            r.cell == "tenancy.quota.t0" and r.kind in ("r/w", "w/r")
            for r in san.reports
        )

    def test_sequenced_charge_and_release_are_clean(self):
        env, san = _sanitized_env()
        ledger = self._ledger(env)

        def mover(env):
            yield env.timeout(1.0)
            ledger.charge(0, 2_000)
            ledger.charge(0, 3_000)
            yield env.timeout(1.0)
            ledger.release(0, 2_000)

        env.process(mover(env), name="mover.s0")
        env.run()
        san.finish()
        assert san.reports == []
        assert ledger.used_bytes(0) == 3_000 and ledger.used_files(0) == 1

    def test_distinct_tenants_are_distinct_cells(self):
        from repro.tenancy import QuotaLedger, TenantSpec

        env, san = _sanitized_env()
        ledger = QuotaLedger(env)
        ledger.add_tenant(TenantSpec(tenant_id=0))
        ledger.add_tenant(TenantSpec(tenant_id=1))

        def mover(env, tid):
            yield env.timeout(1.0)
            ledger.charge(tid, 1_000)

        env.process(mover(env, 0), name="mover.s0")
        env.process(mover(env, 1), name="mover.s1")
        env.run()
        san.finish()
        assert san.reports == []


class TestPrefetchCellRegression:
    """Each server's staging queue head + credit pool is one sanitizer
    cell (``prefetch.queue.s<id>``), written only by that server's
    worker process.  An unsynchronized caller touching the credit
    accounting must be caught, while a real clairvoyant run stays
    sanitizer-clean with an unchanged fingerprint."""

    @staticmethod
    def _fixture(env):
        from repro.cluster import TESTING, Allocation
        from repro.core import HVACDeployment
        from repro.prefetch import ClairvoyantPlanner, LookaheadScheduler
        from repro.storage import GPFS

        spec = TESTING
        alloc = Allocation(env, spec, n_nodes=2)
        pfs = GPFS(env, spec.pfs, 2, spec.network.nic_bandwidth)
        dep = HVACDeployment(alloc, pfs, seed=0)
        files = [(f"/pfs/races/f{i:02d}", 4_000) for i in range(12)]
        plans = {
            n: [files[(i + 5 * n) % len(files)] for i in range(len(files))]
            for n in range(2)
        }
        planner = ClairvoyantPlanner.from_plans(plans)
        sched = LookaheadScheduler(dep, planner)
        return dep, sched, plans

    def test_unsynchronized_credit_updates_race(self):
        env, san = _sanitized_env()
        _dep, sched, _plans = self._fixture(env)
        sid = next(iter(sched._cells))

        def taker(env):
            yield env.timeout(1.0)
            sched._take_credit(sid)

        env.process(taker(env), name="taker.a")
        env.process(taker(env), name="taker.b")
        env.run()
        san.finish()
        assert any(r.cell == f"prefetch.queue.s{sid}" for r in san.reports)
        assert any(r.kind == "w/w" for r in san.reports)

    def test_sequenced_credit_cycle_is_clean(self):
        env, san = _sanitized_env()
        _dep, sched, _plans = self._fixture(env)
        sid = next(iter(sched._cells))

        def cycler(env):
            yield env.timeout(1.0)
            sched._take_credit(sid)
            sched._release_credit(sid)
            yield env.timeout(1.0)
            sched._take_credit(sid)

        env.process(cycler(env), name="cycler")
        env.run()
        san.finish()
        assert san.reports == []

    def test_distinct_servers_are_distinct_cells(self):
        env, san = _sanitized_env()
        _dep, sched, _plans = self._fixture(env)
        sids = list(sched._cells)
        assert len(sids) >= 2, "fixture must spread the plan over servers"

        def taker(env, sid):
            yield env.timeout(1.0)
            sched._take_credit(sid)

        for sid in sids[:2]:
            env.process(taker(env, sid), name=f"taker.s{sid}")
        env.run()
        san.finish()
        assert san.reports == []

    def _run_clairvoyant(self, sanitizer=None, trace=None):
        env = Environment()
        if trace is not None:
            env.observe(trace)
        if sanitizer is not None:
            env.observe(sanitizer)
        dep, sched, plans = self._fixture(env)
        dep.attach_prefetch(sched)
        sched.start()

        def reader(env, node):
            cli = dep.client(node)
            for path, size in plans[node]:
                yield from cli.read_file(path, size, node)

        for n in sorted(plans):
            env.process(reader(env, n), name=f"reader.n{n}")
        env.run()
        sched.stop()
        if sanitizer is not None:
            sanitizer.finish()
        return sched

    def test_real_staging_run_is_sanitizer_clean(self):
        san = RaceSanitizer()
        sched = self._run_clairvoyant(sanitizer=san)
        staged = sched.deployment.metrics.counter("prefetch.staged_files").value
        assert staged > 0, "fixture must actually stage files"
        assert san.reports == [], "\n\n".join(
            r.describe() for r in san.reports
        )

    def test_sanitizer_leaves_prefetch_fingerprint_unchanged(self):
        plain = EventTrace()
        self._run_clairvoyant(trace=plain)
        sanitized = EventTrace()
        self._run_clairvoyant(sanitizer=RaceSanitizer(), trace=sanitized)
        assert plain.count == sanitized.count
        assert plain.fingerprint == sanitized.fingerprint


class TestRunRaces:
    def test_clean_run_exits_zero_and_writes_marker(self, tmp_path, capsys):
        out = tmp_path / "races.txt"
        assert run_races(seed=0, output=str(out)) == 0
        assert "clean" in out.read_text()

    def test_racy_run_exits_nonzero_and_writes_reports(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.membership.repair import RepairManager

        def direct_spawn(self, server):
            self.metrics.counter("repairs_started").incr()
            self.env.process(
                self._repair(server), name=f"repair.s{server.server_id}"
            )

        monkeypatch.setattr(RepairManager, "on_recover", direct_spawn)
        out = tmp_path / "races.txt"
        assert run_races(seed=0, output=str(out)) == 1
        text = out.read_text()
        assert "limiter.repair" in text and "same-timestamp race" in text
