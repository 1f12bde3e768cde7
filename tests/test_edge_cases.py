"""Edge-case coverage across the stack: resource cleanup on interrupt,
RPC endpoint resilience, runtime concurrency, preset sanity."""

import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FRONTIER, SUMMIT, Fabric, NetworkSpec
from repro.dl import IMAGENET21K, SyntheticDataset
from repro.rpc import RPCEndpoint, RPCError
from repro.runtime import RuntimeDeployment
from repro.simcore import Environment, Interrupt, Resource, Store


class TestResourceCleanupOnInterrupt:
    def test_interrupted_holder_releases_via_context_manager(self):
        env = Environment()
        res = Resource(env, capacity=1)
        got = []

        def holder():
            try:
                with (yield res):
                    yield env.timeout(100)
            except Interrupt:
                pass  # the with-block must have released on unwind

        def waiter():
            yield env.timeout(1)
            with (yield res):
                got.append(env.now)

        p = env.process(holder())
        env.process(waiter())

        def interrupter():
            yield env.timeout(2)
            p.interrupt()

        env.process(interrupter())
        env.run()
        assert got == [2.0]
        assert res.count == 0

    def test_interrupted_waiter_leaves_queue(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder():
            with (yield res):
                yield env.timeout(10)

        def impatient():
            try:
                with (yield res):
                    pass
            except Interrupt:
                pass

        env.process(holder())
        p = env.process(impatient())

        def interrupter():
            yield env.timeout(1)
            p.interrupt()

        env.process(interrupter())
        env.run(until=5)
        assert res.queued == 0

    def test_store_get_interrupt_no_phantom_consumer(self):
        env = Environment()
        store = Store(env)
        got = []

        def quitter():
            try:
                yield store.get()
            except Interrupt:
                pass

        def consumer():
            yield env.timeout(2)
            item = yield store.get()
            got.append(item)

        p = env.process(quitter())
        env.process(consumer())

        def interrupter():
            yield env.timeout(1)
            p.interrupt()

        def producer():
            yield env.timeout(3)
            yield store.put("x")

        env.process(interrupter())
        env.process(producer())
        env.run()
        # The interrupted getter must not swallow the item.
        assert got == ["x"]


class TestRPCResilience:
    def make(self):
        env = Environment()
        fab = Fabric(env, NetworkSpec(nic_bandwidth=1e6, link_latency=1e-4,
                                      per_message_overhead=0.0), 2)
        return env, fab

    def test_timeout_leaves_endpoint_usable(self):
        env, fab = self.make()
        srv = RPCEndpoint(env, fab, 1)
        cli = RPCEndpoint(env, fab, 0)

        def slow(payload, src):
            yield env.timeout(100)
            return "late"

        def fast(payload, src):
            yield env.timeout(0.001)
            return "quick"

        srv.register("slow", slow)
        srv.register("fast", fast)
        results = []

        def caller():
            try:
                yield from cli.call(srv, "slow", timeout=0.1)
            except RPCError:
                results.append("timed-out")
            value = yield from cli.call(srv, "fast")
            results.append(value)

        env.process(caller())
        env.run(until=10)
        assert results == ["timed-out", "quick"]

    def test_restart_allows_new_calls(self):
        env, fab = self.make()
        srv = RPCEndpoint(env, fab, 1)
        cli = RPCEndpoint(env, fab, 0)

        def echo(payload, src):
            yield env.timeout(0)
            return payload

        srv.register("echo", echo)
        results = []

        def caller():
            srv.shutdown()
            try:
                yield from cli.call(srv, "echo", payload=1)
            except RPCError:
                results.append("down")
            srv.restart()
            value = yield from cli.call(srv, "echo", payload=2)
            results.append(value)

        env.process(caller())
        env.run()
        assert results == ["down", 2]


class TestRuntimeConcurrency:
    def test_many_threads_one_deployment(self, tmp_path):
        pfs = tmp_path / "pfs"
        pfs.mkdir()
        for i in range(30):
            (pfs / f"f{i}.bin").write_bytes(bytes([i]) * 512)

        with RuntimeDeployment(str(pfs), n_servers=3) as dep:
            errors = []

            def worker(tid):
                try:
                    for i in range(30):
                        data = dep.client.read_file(str(pfs / f"f{i}.bin"))
                        assert data == bytes([i]) * 512
                except Exception as err:  # noqa: BLE001
                    errors.append(err)

            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert dep.total_hits + dep.total_misses == 180


class TestPresets:
    def test_frontier_envelope(self):
        assert FRONTIER.total_nodes == 9408
        assert FRONTIER.node.nvme.read_bandwidth > SUMMIT.node.nvme.read_bandwidth
        assert FRONTIER.network.nic_bandwidth > SUMMIT.network.nic_bandwidth
        assert (FRONTIER.pfs.aggregate_bandwidth
                > SUMMIT.pfs.aggregate_bandwidth)

    def test_with_network_override(self):
        s = replace(SUMMIT, network=replace(SUMMIT.network, rack_size=18))
        assert s.network.rack_size == 18
        assert SUMMIT.network.rack_size == 0


class TestDatasetProperties:
    @given(n=st.integers(min_value=1, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_paths_unique(self, n):
        ds = SyntheticDataset(IMAGENET21K.scaled_to(n))
        paths = ds.paths()
        assert len(set(paths)) == n

    @given(
        n=st.integers(min_value=2, max_value=500),
        e1=st.integers(min_value=0, max_value=10),
        e2=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_orders_permutation_every_epoch(self, n, e1, e2):
        ds = SyntheticDataset(IMAGENET21K.scaled_to(n))
        o1, o2 = ds.epoch_order(e1), ds.epoch_order(e2)
        assert sorted(o1.tolist()) == list(range(n))
        if e1 == e2:
            assert (o1 == o2).all()
