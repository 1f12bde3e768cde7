"""Tests for the rack topology model and topology-aware placement."""

import pytest

from repro.cluster import Allocation, Fabric, NetworkSpec, TESTING
from repro.core import HVACDeployment, ModuloPlacement, TopologyAwarePlacement
from repro.simcore import AllOf, Environment
from repro.storage import GPFS


def racked_spec(rack_size=2, uplink=None, **hvac):
    import dataclasses

    spec = TESTING.with_hvac(**hvac)
    return dataclasses.replace(
        spec,
        network=dataclasses.replace(
            spec.network,
            rack_size=rack_size,
            rack_uplink_bandwidth=uplink if uplink is not None else 0.0,
        ),
    )


class TestRackedFabric:
    def make(self, env, n=4, rack_size=2, uplink_bw=50.0):
        spec = NetworkSpec(
            nic_bandwidth=100.0,
            link_latency=0.0,
            per_message_overhead=0.0,
            loopback_bandwidth=1000.0,
            rack_size=rack_size,
            rack_uplink_bandwidth=uplink_bw,
        )
        return Fabric(env, spec, n)

    def test_rack_of(self):
        env = Environment()
        fab = self.make(env)
        assert fab.rack_of(0) == 0
        assert fab.rack_of(1) == 0
        assert fab.rack_of(2) == 1
        assert fab.rack_of(3) == 1

    def test_flat_fabric_single_rack(self):
        env = Environment()
        spec = NetworkSpec(nic_bandwidth=100.0)
        fab = Fabric(env, spec, 4)
        assert fab.rack_of(3) == 0

    def test_intra_rack_at_nic_speed(self):
        env = Environment()
        fab = self.make(env)

        def proc():
            yield from fab.transfer(0, 1, 100)  # same rack: 100/100 = 1 s

        env.run(env.process(proc()))
        assert env.now == pytest.approx(1.0)

    def test_inter_rack_limited_by_uplink(self):
        env = Environment()
        fab = self.make(env)  # uplink 50 B/s

        def proc():
            yield from fab.transfer(0, 2, 100)  # cross-rack: 100/50 = 2 s

        env.run(env.process(proc()))
        assert env.now == pytest.approx(2.0)
        assert fab.metrics.counter("fabric.inter_rack_transfers").value == 1

    def test_uplink_contention_serializes(self):
        env = Environment()
        fab = self.make(env)

        def proc(src, dst):
            yield from fab.transfer(src, dst, 100)

        env.process(proc(0, 2))
        env.process(proc(1, 3))  # both cross rack0 → rack1 uplink
        env.run()
        assert env.now == pytest.approx(4.0)

    def test_default_uplink_is_unoversubscribed(self):
        env = Environment()
        fab = self.make(env, uplink_bw=0.0)  # 0 → rack_size × nic

        def proc():
            yield from fab.transfer(0, 2, 100)

        env.run(env.process(proc()))
        assert env.now == pytest.approx(1.0)  # NIC-bound, not uplink-bound

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(rack_size=-1)


class TestTopologyAwarePlacement:
    def make(self, n_servers=8, spn=1, rack_size=2, repl=2):
        base = ModuloPlacement(n_servers)
        return TopologyAwarePlacement(
            base, servers_per_node=spn, rack_size=rack_size,
            replication_factor=repl,
        )

    def test_replicas_in_distinct_racks(self):
        p = self.make()
        for i in range(100):
            reps = p.replicas(f"/f{i}")
            racks = {p.rack_of(s) for s in reps}
            assert len(racks) == len(reps)

    def test_primary_matches_base(self):
        base = ModuloPlacement(8)
        p = TopologyAwarePlacement(base, 1, 2, replication_factor=2)
        for i in range(50):
            assert p.replicas(f"/f{i}")[0] == base.home(f"/f{i}")

    def test_three_way_replication(self):
        p = self.make(n_servers=12, rack_size=2, repl=3)
        reps = p.replicas("/x")
        assert len({p.rack_of(s) for s in reps}) == 3

    def test_too_much_replication_rejected(self):
        with pytest.raises(ValueError):
            self.make(n_servers=4, rack_size=2, repl=3)  # only 2 racks

    def test_validation(self):
        base = ModuloPlacement(4)
        with pytest.raises(ValueError):
            TopologyAwarePlacement(base, 1, 0)
        with pytest.raises(ValueError):
            TopologyAwarePlacement(base, 0, 2)


class TestTopologyAwareHVAC:
    FILES = [(f"/d/f{i}", 20_000) for i in range(24)]

    def build(self, **kw):
        env = Environment()
        spec = racked_spec(rack_size=2, replication_factor=2,
                           topology_aware=True, **kw)
        alloc = Allocation(env, spec, n_nodes=4)
        pfs = GPFS(env, spec.pfs, 4, spec.network.nic_bandwidth)
        dep = HVACDeployment(alloc, pfs)
        return env, dep

    def read_all(self, env, dep, nodes):
        def reader(node):
            cli = dep.client(node)
            for path, size in self.FILES:
                yield from cli.read_file(path, size, node)

        procs = [env.process(reader(n)) for n in nodes]

        def wait():
            yield AllOf(env, procs)

        env.run(env.process(wait()))

    def test_deployment_wraps_placement(self):
        env, dep = self.build()
        assert isinstance(dep.placement, TopologyAwarePlacement)

    def test_requires_rack_size(self):
        env = Environment()
        spec = TESTING.with_hvac(topology_aware=True, replication_factor=2)
        alloc = Allocation(env, spec, n_nodes=4)
        pfs = GPFS(env, spec.pfs, 4, spec.network.nic_bandwidth)
        with pytest.raises(ValueError):
            HVACDeployment(alloc, pfs)

    def test_clients_prefer_same_rack_replica(self):
        env, dep = self.build()
        cli = dep.client(0)  # rack 0
        for path, _ in self.FILES:
            order = cli.replica_order(path)
            racks = [dep.placement.rack_of(s) for s in order]
            my_rack = 0
            if my_rack in racks:
                assert racks[0] == my_rack

    def test_rack_failure_survivable(self):
        """The fault-domain property: lose a whole rack, keep serving
        from replicas without PFS fallback."""
        env, dep = self.build()
        self.read_all(env, dep, [0, 1, 2, 3])
        before = dep.metrics.counter("hvac.client_pfs_fallback").value
        dep.fail_node(2)
        dep.fail_node(3)  # rack 1 gone
        self.read_all(env, dep, [0, 1])
        assert dep.metrics.counter("hvac.client_pfs_fallback").value == before

    def test_same_rack_preference_reduces_uplink_traffic(self):
        def inter_rack_count(topology_aware):
            env = Environment()
            spec = racked_spec(
                rack_size=2,
                replication_factor=2,
                topology_aware=topology_aware,
            )
            alloc = Allocation(env, spec, n_nodes=4)
            pfs = GPFS(env, spec.pfs, 4, spec.network.nic_bandwidth)
            dep = HVACDeployment(alloc, pfs)
            self.read_all(env, dep, [0, 1, 2, 3])  # populate replicas
            before = dep.metrics.counter("fabric.inter_rack_transfers").value
            self.read_all(env, dep, [0, 1, 2, 3])  # warm epoch
            return (
                dep.metrics.counter("fabric.inter_rack_transfers").value - before
            )

        assert inter_rack_count(True) < inter_rack_count(False)
