"""Clairvoyant prefetch: planner identity, look-ahead staging, faults,
the compressed cache tier, and the reactive-baseline starvation fix."""

import numpy as np
import pytest

from repro.cluster import Allocation, NVMeDevice, NVMeSpec, TESTING
from repro.core import CacheManager, CachePrefetcher, HVACDeployment, make_policy
from repro.dl import SyntheticDataset, make_epoch_plan
from repro.dl.dataset import DatasetSpec
from repro.prefetch import ClairvoyantPlanner, LookaheadScheduler
from repro.simcore import AllOf, Environment, EventTrace
from repro.storage import GPFS


def dataset(n_files=24, size=20_000, seed=3):
    return SyntheticDataset(
        DatasetSpec(
            name="pftest",
            n_train_files=n_files,
            n_valid_files=1,
            mean_file_bytes=size,
            size_sigma=0.0,
            pfs_dir="/pfs/pftest",
        ),
        seed,
    )


def build(n_nodes=2, spec=None, **hvac):
    env = Environment()
    spec = (spec or TESTING).with_hvac(**hvac)
    alloc = Allocation(env, spec, n_nodes=n_nodes)
    pfs = GPFS(env, spec.pfs, n_nodes, spec.network.nic_bandwidth)
    dep = HVACDeployment(alloc, pfs, seed=0)
    return env, dep, pfs


class TestPlanner:
    def test_same_seed_same_plan_and_digest(self):
        ds = dataset()
        a = ClairvoyantPlanner.from_epoch_plans(ds, 2, epochs=2, shuffle_seed=7)
        b = ClairvoyantPlanner.from_epoch_plans(ds, 2, epochs=2, shuffle_seed=7)
        assert a.digest() == b.digest()
        assert a.schedules() == b.schedules()

    def test_digest_sensitive_to_seed_and_epochs(self):
        ds = dataset()
        a = ClairvoyantPlanner.from_epoch_plans(ds, 2, epochs=2, shuffle_seed=7)
        assert a.digest() != ClairvoyantPlanner.from_epoch_plans(
            ds, 2, epochs=2, shuffle_seed=8
        ).digest()
        assert a.digest() != ClairvoyantPlanner.from_epoch_plans(
            ds, 2, epochs=3, shuffle_seed=7
        ).digest()

    def test_plan_matches_the_loader_order(self):
        """The planner must use the data loader's own shard math, so
        plan and demand can never disagree."""
        ds = dataset()
        planner = ClairvoyantPlanner.from_epoch_plans(ds, 2, epochs=2, shuffle_seed=5)
        for rank in range(2):
            want = []
            for epoch in range(2):
                plan = make_epoch_plan(ds, epoch, 2, shuffle_seed=5)
                want.extend(
                    (ds.path(int(i)), ds.size(int(i)))
                    for i in plan.shards[rank].indices
                )
            assert planner.schedule(rank).entries == tuple(want)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClairvoyantPlanner({})
        with pytest.raises(ValueError):
            ClairvoyantPlanner.from_epoch_plans(dataset(), 2, epochs=0)


class TestLookaheadScheduler:
    def _run(self, fault_at=None, recover_at=None, trace=None, off_plan=False):
        """One clairvoyant 2-node run; returns (dep, sched, results)."""
        env, dep, _pfs = build(
            rpc_max_retries=2,
            rpc_backoff_base=1e-4,
            rpc_backoff_cap=1e-3,
            suspect_after=2,
            probation_period=0.02,
        )
        if trace is not None:
            env.observe(trace)
        ds = dataset()
        planner = ClairvoyantPlanner.from_epoch_plans(ds, 2, epochs=2, shuffle_seed=1)
        sched = LookaheadScheduler(dep, planner)
        dep.attach_prefetch(sched)
        sched.start()
        results = {0: [], 1: []}

        def reader(node):
            cli = dep.client(node)
            entries = planner.schedule(node).entries
            if off_plan and node == 1:
                # First read leaves the plan: this client's window must
                # freeze without touching anyone else's staging.
                n = yield from cli.read_file("/pfs/pftest/off-plan", 1000, node)
                results[node].append(("/pfs/pftest/off-plan", n))
            for path, size in entries:
                n = yield from cli.read_file(path, size, node)
                results[node].append((path, n))

        procs = [env.process(reader(n), name=f"reader.n{n}") for n in (0, 1)]
        if fault_at is not None:

            def crasher():
                yield env.timeout(fault_at)
                dep.fail_node(0)
                if recover_at is not None:
                    yield env.timeout(recover_at)
                    dep.recover_node(0)

            env.process(crasher(), name="crasher")

        def wait():
            yield AllOf(env, procs)

        env.run(env.process(wait(), name="wait"))
        sched.stop()
        env.run()
        return dep, sched, results

    def test_staging_warms_the_cache(self):
        dep, sched, results = self._run()
        assert dep.metrics.counter("prefetch.staged_files").value > 0
        assert not sched.invalidated
        assert dep.metrics.counter("hvac.cache_hits").value > 0
        # Every read delivered its full size.
        for node, got in results.items():
            assert all(n > 0 for _, n in got)

    def test_same_seed_double_run_is_fingerprint_identical(self):
        a, b = EventTrace(), EventTrace()
        self._run(trace=a)
        self._run(trace=b)
        assert a.count == b.count
        assert a.fingerprint == b.fingerprint

    def test_crash_invalidates_and_reads_fall_back(self):
        dep, sched, results = self._run(fault_at=0.002)
        # The dead server's slice is invalidated; demand degrades to
        # failover/PFS and every read still completes in full.
        assert sched.invalidated
        assert dep.metrics.counter("prefetch.invalidations").value >= 1
        for node, got in results.items():
            assert len(got) == len(sched._entries[node])
            assert all(n > 0 for _, n in got)

    def test_recovery_resumes_staging(self):
        dep, sched, _ = self._run(fault_at=0.002, recover_at=0.01)
        assert dep.metrics.counter("prefetch.resumes").value >= 1
        assert not sched.invalidated  # the resumed slice re-armed

    def test_off_plan_read_freezes_only_that_client(self):
        dep, sched, results = self._run(off_plan=True)
        assert dep.metrics.counter("prefetch.divergences").value == 1
        # The diverged client still completes reactively; the other
        # client's staging keeps running.
        assert dep.metrics.counter("prefetch.staged_files").value > 0
        assert all(n > 0 for _, n in results[1])

    def test_validation(self):
        env, dep, _ = build()
        planner = ClairvoyantPlanner.from_plans({0: [("/pfs/x", 10)]})
        with pytest.raises(ValueError):
            TESTING.with_hvac(prefetch_lookahead=0)
        with pytest.raises(ValueError):
            TESTING.with_hvac(prefetch_outstanding=0)
        sched = LookaheadScheduler(dep, planner)
        sched.start()
        with pytest.raises(RuntimeError):
            sched.start()


class TestReactiveStarvation:
    """The demand-starvation fix in the reactive baseline: bulk
    staging must never order a same-instant demand read behind a full
    re-enqueued prefetch wave, and a server dying mid-fetch must not
    crash the (caller-less) prefetch process."""

    FILES = [(f"/data/f{i}", 60_000) for i in range(32)]

    def test_demand_read_is_not_starved_by_bulk_staging(self):
        env, dep, _ = build(n_nodes=2, prefetch_outstanding=2)
        pre = CachePrefetcher(
            dep, [p for p, _ in self.FILES], [s for _, s in self.FILES]
        )
        proc = pre.start()
        t_demand = {}

        def demand():
            cli = dep.client(0)
            yield from cli.read_file(*self.FILES[-1], 0)
            t_demand["done"] = env.now

        env.process(demand(), name="demand")
        env.run(proc)
        assert pre.done
        # The demand read slots into the sliding window instead of
        # waiting out the whole bulk stream.
        assert t_demand["done"] < 0.5 * env.now

    def test_mid_fetch_crash_does_not_crash_the_prefetcher(self):
        env, dep, _ = build(n_nodes=2, prefetch_outstanding=2)
        pre = CachePrefetcher(
            dep, [p for p, _ in self.FILES], [s for _, s in self.FILES]
        )
        pre.start()

        def crasher():
            yield env.timeout(1e-4)
            dep.fail_node(1)

        env.process(crasher(), name="crasher")
        env.run()  # an unhandled RPCError here would raise out of run()
        assert pre.done
        assert 0 < dep.metrics.counter("prefetch.staged_files").value <= len(self.FILES)


def compressed_cache(env, capacity=10_000, ratio=0.5, cost=1e-9):
    spec = NVMeSpec(
        capacity_bytes=capacity * 10,
        read_bandwidth=1e9,
        write_bandwidth=1e9,
        read_latency=1e-6,
        write_latency=1e-6,
        queue_depth=8,
        fs_open_close_latency=1e-6,
    )
    return CacheManager(
        env,
        NVMeDevice(env, spec),
        capacity,
        make_policy("lru", np.random.default_rng(0)),
        name="comp",
        compression_ratio=ratio,
        decompress_cost_per_byte=cost,
    )


def run(env, gen):
    return env.run(env.process(gen))


def test_pfs_read_bytes_is_the_exact_sum_of_pfs_reads():
    """``gpfs.read_bytes`` is a plain sum of what every PFS read
    returned, staged and demand reads alike, with no rounding."""
    env, dep, pfs = build()
    returned = []
    striped_read = pfs.read

    def read(handle, nbytes):
        n = yield from striped_read(handle, nbytes)
        returned.append(n)
        return n

    pfs.read = read
    ds = SyntheticDataset(
        DatasetSpec(
            name="pfsbytes",
            n_train_files=12,
            n_valid_files=1,
            mean_file_bytes=20_000,
            size_sigma=0.6,
            pfs_dir="/pfs/pfsbytes",
        ),
        5,
    )
    sizes = [ds.size(i) for i in range(len(ds))]
    assert len(set(sizes)) > 1
    env.run(CachePrefetcher(dep, ds.paths(), sizes).start())
    run(env, dep.client(0).read_file("/pfs/pfsbytes/extra", 12_345, 0))
    assert len(returned) == len(ds) + 1
    assert dep.metrics.counter("gpfs.read_bytes").value == sum(returned)


class TestCompressedTier:
    def test_residents_occupy_compressed_bytes(self):
        env = Environment()
        cache = compressed_cache(env, ratio=0.5)
        assert run(env, cache.insert("/f", 1000)) is True
        assert cache.used_bytes == 500
        # Serving still knows the raw size.
        assert run(env, cache.read("/f")) == 1000

    def test_hit_pays_deterministic_decompress_cost(self):
        env = Environment()
        cost = 1e-6  # per raw byte, dwarfs the device read
        cache = compressed_cache(env, ratio=0.5, cost=cost)
        run(env, cache.insert("/f", 1000))
        t0 = env.now
        run(env, cache.read("/f"))
        elapsed = env.now - t0
        assert elapsed >= cost * 1000
        charged = cache.metrics.counter("comp.decompress_seconds").value
        assert charged == pytest.approx(cost * 1000)

    def test_ratio_one_tier_is_inert(self):
        env = Environment()
        cache = compressed_cache(env, ratio=1.0, cost=0.0)
        run(env, cache.insert("/f", 1000))
        assert cache.used_bytes == 1000
        run(env, cache.read("/f"))
        assert cache.metrics.counter("comp.decompress_seconds").value == 0

    def test_arbiter_is_charged_compressed_bytes(self):
        from repro.tenancy import QuotaLedger, TenantCacheArbiter, TenantSpec

        env = Environment()
        cache = compressed_cache(env, ratio=0.5)
        ledger = QuotaLedger(env)
        ledger.add_tenant(TenantSpec(tenant_id=0, quota_bytes=5_000))
        TenantCacheArbiter("shared", ledger, {0: 1.0}).attach(cache)
        run(env, cache.insert("/pfs/t0/f", 1000))
        # Quota sees what the device holds: the stored (compressed) size.
        assert ledger.used_bytes(0) == 500
        cache.evict("/pfs/t0/f")
        assert ledger.used_bytes(0) == 0

    def test_compressed_capacity_admits_more_raw_bytes(self):
        env = Environment()
        plain = compressed_cache(env, capacity=1000, ratio=1.0)
        comp = compressed_cache(env, capacity=1000, ratio=0.25)
        for i in range(4):
            run(env, plain.insert(f"/p{i}", 1000))
            run(env, comp.insert(f"/c{i}", 1000))
        assert plain.n_files == 1  # each insert evicted the last
        assert comp.n_files == 4  # all fit at quarter size

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            compressed_cache(env, ratio=0.0)
        with pytest.raises(ValueError):
            compressed_cache(env, ratio=1.5)
        with pytest.raises(ValueError):
            compressed_cache(env, cost=-1.0)


class TestFuzzPrefetchDimension:
    def _scenario(self, prefetch):
        from repro.fuzz import Scenario, Workload

        return Scenario(
            seed=11,
            n_nodes=3,
            n_files=10,
            mean_file_size=20_000,
            workload=Workload(kind="uniform", clients=(0, 1), reads_per_client=8),
            prefetch=prefetch,
            faults=(),
        )

    def test_round_trip_and_digest(self):
        from repro.fuzz import Scenario
        from repro.fuzz.scenario import scenario_digest

        s = self._scenario(True)
        back = Scenario.from_dict(s.to_dict())
        assert back == s
        assert scenario_digest(s) != scenario_digest(self._scenario(False))

    def test_old_case_files_default_to_reactive(self):
        from repro.fuzz import Scenario

        d = self._scenario(False).to_dict()
        d.pop("prefetch")  # a case file saved before the dimension existed
        assert Scenario.from_dict(d).prefetch is False

    def test_executor_stages_when_prefetch_is_on(self):
        from repro.fuzz.executor import execute

        obs = execute(self._scenario(True))
        assert not obs.aborted
        assert obs.epochs and not any(e.hung for e in obs.epochs)

    def test_read_results_identical_prefetch_on_and_off(self):
        """Staging changes timing, never data: the same scenario plan
        delivers byte-identical read results with the scheduler on."""
        ds = dataset(n_files=16)
        got = {}
        for on in (False, True):
            env, dep, _ = build()
            planner = ClairvoyantPlanner.from_epoch_plans(
                ds, 2, epochs=1, shuffle_seed=2
            )
            if on:
                sched = LookaheadScheduler(dep, planner)
                dep.attach_prefetch(sched)
                sched.start()
            results = {0: [], 1: []}

            def reader(node):
                cli = dep.client(node)
                for path, size in planner.schedule(node).entries:
                    n = yield from cli.read_file(path, size, node)
                    results[node].append((path, n))

            procs = [env.process(reader(n), name=f"r{n}") for n in (0, 1)]

            def wait():
                yield AllOf(env, procs)

            env.run(env.process(wait(), name="wait"))
            got[on] = results
        assert got[True] == got[False]
