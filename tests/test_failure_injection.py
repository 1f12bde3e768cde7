"""Failure-injection tests: servers dying mid-flight, repeated failures,
recovery storms — the §III-H reliability story under adversity."""

import pytest

from repro.cluster import Allocation, TESTING
from repro.core import HVACDeployment
from repro.rpc import RPCError
from repro.simcore import AllOf, Environment, Interrupt
from repro.storage import GPFS


def build(n_nodes=4, **hvac):
    env = Environment()
    spec = TESTING.with_hvac(**hvac)
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


class TestMidFlightFailures:
    def test_server_dies_during_epoch_training_survives(self):
        env, dep, _ = build()
        job = epoch_proc(env, dep, [0, 1, 2, 3])

        def killer():
            yield env.timeout(0.001)  # mid-epoch
            dep.fail_node(2)

        env.process(killer())
        env.run(job)  # must complete without raising

    def test_server_dies_during_epoch_with_replication(self):
        env, dep, _ = build(replication_factor=2)
        job = epoch_proc(env, dep, [0, 1, 2, 3])

        def killer():
            yield env.timeout(0.001)
            dep.fail_node(1)

        env.process(killer())
        env.run(job)

    def test_cascading_failures_leave_one_node(self):
        env, dep, pfs = build()
        job = epoch_proc(env, dep, [0])

        def cascade():
            for node in (1, 2, 3):
                yield env.timeout(0.0005)
                dep.fail_node(node)

        env.process(cascade())
        env.run(job)
        # Everything the dead servers homed fell back to the PFS.
        assert dep.metrics.counter("hvac.client_pfs_fallback").value > 0

    def test_fail_recover_fail_cycles(self):
        env, dep, _ = build()
        for _ in range(3):
            env.run(epoch_proc(env, dep, [0]))
            dep.fail_node(1)
            env.run(epoch_proc(env, dep, [0]))
            dep.recover_node(1)
        # Recovered servers come back cold but functional.
        env.run(epoch_proc(env, dep, [0]))
        for s in dep.servers_on_node(1):
            assert s.alive

    def test_all_nodes_failed_everything_falls_back(self):
        env, dep, pfs = build(n_nodes=2)
        env.run(epoch_proc(env, dep, [0, 1]))
        dep.fail_node(0)
        dep.fail_node(1)
        before = pfs.metrics.counter("gpfs.opens").value
        env.run(epoch_proc(env, dep, [0, 1]))
        # Every read in the second sweep hit GPFS directly.
        assert pfs.metrics.counter("gpfs.opens").value == before + 2 * len(FILES)

    def test_failure_does_not_lose_other_nodes_cache(self):
        env, dep, _ = build()
        env.run(epoch_proc(env, dep, [0, 1, 2, 3]))
        cached_before = {
            s.server_id: s.cache.n_files for s in dep.servers if s.node_id != 3
        }
        dep.fail_node(3)
        for s in dep.servers:
            if s.node_id != 3:
                assert s.cache.n_files == cached_before[s.server_id]


class TestRPCDeathSemantics:
    def test_call_racing_shutdown(self):
        """A call that arrives as the endpoint dies raises, not hangs."""
        env, dep, _ = build(n_nodes=2)
        server = dep.servers[1]
        cli = dep.client(0)
        outcomes = []

        def caller():
            try:
                yield from cli.endpoint.call(
                    server.endpoint, "read", payload=("/d/x", 100, None, None),
                    payload_bytes=10,
                )
                outcomes.append("ok")
            except RPCError:
                outcomes.append("error")

        def killer():
            yield env.timeout(1e-7)
            server.fail()

        env.process(caller())
        env.process(killer())
        env.run()
        assert outcomes in (["ok"], ["error"])  # never a hang

    def test_oob_close_to_dead_server_is_swallowed(self):
        env, dep, _ = build(n_nodes=2)
        cli = dep.client(0)

        def proc():
            h = yield from cli.open("/d/f0", 100, 0)
            yield from cli.read(h, 100)
            dep.fail_node(dep.placement.home("/d/f0") // 1)
            yield from cli.close(h)  # close fires out-of-band at a corpse

        env.run(env.process(proc()))
        env.run()  # drain the OOB process; must not raise


class TestInterruptRobustness:
    def test_interrupted_reader_leaves_consistent_state(self):
        env, dep, _ = build()
        cli = dep.client(0)

        def reader():
            try:
                for path, size in FILES:
                    yield from cli.read_file(path, size, 0)
            except Interrupt:
                return "stopped"

        p = env.process(reader())

        def interrupter():
            yield env.timeout(0.002)
            p.interrupt()

        env.process(interrupter())
        assert env.run(p) == "stopped"
        # The deployment still works for other readers afterwards.
        env.run(epoch_proc(env, dep, [1]))
