"""Unit tests for the cluster hardware models."""

from dataclasses import replace

import pytest

from repro.cluster import (
    Allocation,
    ClusterSpec,
    DeviceFull,
    Fabric,
    HVACSpec,
    MiB,
    NetworkSpec,
    NVMeDevice,
    NVMeSpec,
    PFSSpec,
    SUMMIT,
    TESTING,
)
from repro.simcore import Environment, SimulationError


class TestSpecs:
    def test_summit_aggregate_pfs_bandwidth_is_2_5_tbps(self):
        assert SUMMIT.pfs.aggregate_bandwidth == pytest.approx(2.5e12, rel=0.01)

    def test_summit_nvme_aggregate_matches_paper(self):
        # 22.5 TB/s at 4,096 nodes (paper §II-C)
        assert 4096 * SUMMIT.node.nvme.read_bandwidth == pytest.approx(
            22.5e12, rel=0.01
        )

    def test_summit_node_count(self):
        assert SUMMIT.total_nodes == 4608

    def test_with_hvac_override(self):
        s = SUMMIT.with_hvac(instances_per_node=4)
        assert s.hvac.instances_per_node == 4
        assert SUMMIT.hvac.instances_per_node == 1  # original untouched

    def test_with_pfs_override(self):
        s = replace(SUMMIT, pfs=replace(SUMMIT.pfs, n_metadata_servers=8))
        assert s.pfs.n_metadata_servers == 8
        assert SUMMIT.pfs.n_metadata_servers == 32  # original untouched
        with pytest.raises(ValueError):  # an override is validated too
            replace(SUMMIT.pfs, n_metadata_servers=0)

    def test_hvac_spec_validation(self):
        with pytest.raises(ValueError):
            HVACSpec(instances_per_node=0)
        with pytest.raises(ValueError):
            HVACSpec(cache_fraction=0)
        with pytest.raises(ValueError):
            HVACSpec(eviction_policy="magic")
        with pytest.raises(ValueError):
            HVACSpec(hash_scheme="broken")
        with pytest.raises(ValueError):
            HVACSpec(replication_factor=0)
        # Each of these used to pass here and fail only at build time or
        # inside the first read.
        for kw in (
            dict(data_mover_concurrency=0),
            dict(consistent_vnodes=0),
            dict(server_request_overhead=-1e-6),
            dict(client_request_overhead=-1e-6),
            dict(server_request_overhead=float("nan")),
        ):
            with pytest.raises(ValueError):
                HVACSpec(**kw)

    @pytest.mark.parametrize("value", [0, float("nan")], ids=repr)
    @pytest.mark.parametrize(
        "field", ["instances_per_node", "data_mover_concurrency", "consistent_vnodes"]
    )
    def test_hvac_spec_counts_are_at_least_one(self, field, value):
        # A NaN passes `x < 1`; a NaN data_mover_concurrency used to be
        # accepted and fail only as the copy-slot Resource's capacity.
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            HVACSpec(**{field: value})

    @pytest.mark.parametrize("field", [
        "rpc_timeout", "rpc_backoff_base", "rpc_backoff_cap",
        "probation_period", "gossip_interval", "suspect_to_dead",
        "repair_bandwidth", "decompress_cost_per_byte",
    ])
    def test_hvac_spec_rejects_nan(self, field):
        # A NaN passes `x <= 0` and `x < 0`; a NaN rpc_timeout used to
        # die only at the first deadline, as a kernel SimulationError.
        with pytest.raises(ValueError, match=field):
            HVACSpec(**{field: float("nan")})

    def test_nvme_spec_validation(self):
        nan = float("nan")
        for kw in (
            dict(capacity_bytes=0),
            dict(write_bandwidth=0),
            dict(capacity_bytes=nan),
            dict(read_bandwidth=nan),
            dict(write_bandwidth=nan),
            dict(read_latency=-1e-6),
            dict(queue_depth=0),
        ):
            with pytest.raises(ValueError):
                NVMeSpec(**kw)

    def test_network_spec_validation(self):
        for kw in (
            dict(nic_bandwidth=0),
            dict(nic_bandwidth=float("nan")),
            dict(loopback_bandwidth=0),
            dict(link_latency=-1e-6),
            dict(per_message_overhead=float("nan")),
        ):
            with pytest.raises(ValueError):
                NetworkSpec(**kw)
        # 0 keeps meaning "no oversubscription"
        NetworkSpec(rack_size=4, rack_uplink_bandwidth=0.0)

    def test_pfs_spec_validation(self):
        # Each of these used to pass here and die inside the first read
        # (ZeroDivisionError) or as a kernel SimulationError (NaN).
        for kw in (
            dict(n_metadata_servers=0),
            dict(n_data_servers=0),
            dict(stripe_size=0),
            dict(metadata_ops_per_sec=0),
            dict(data_server_bandwidth=0),
            dict(metadata_ops_per_sec=float("nan")),
            dict(data_server_bandwidth=float("nan")),
            dict(data_latency=-1e-6),
            dict(ops_per_open=float("nan")),
        ):
            with pytest.raises(ValueError, match=next(iter(kw))):
                PFSSpec(**kw)


class TestNVMeDevice:
    def make(self, env, **kw):
        spec = NVMeSpec(
            capacity_bytes=1000,
            read_bandwidth=100.0,
            write_bandwidth=50.0,
            read_latency=1.0,
            write_latency=2.0,
            queue_depth=2,
            **kw,
        )
        return NVMeDevice(env, spec)

    def test_read_time_is_latency_plus_transfer(self):
        env = Environment()
        dev = self.make(env)

        def proc():
            yield from dev.read(200)  # 1 + 200/100 = 3s

        env.process(proc())
        env.run()
        assert env.now == pytest.approx(3.0)

    def test_write_time(self):
        env = Environment()
        dev = self.make(env)

        def proc():
            yield from dev.write(100)  # 2 + 100/50 = 4s

        env.process(proc())
        env.run()
        assert env.now == pytest.approx(4.0)

    def test_queue_depth_limits_concurrency(self):
        env = Environment()
        dev = self.make(env)  # QD=2; latency 1s overlaps, 1s transfers serialize

        def reader():
            yield from dev.read(100)

        for _ in range(4):
            env.process(reader())
        env.run()
        # Two reads admitted at t=0 (QD=2): latencies overlap 0→1, their
        # transfers serialize 1→2 and 2→3; the third enters when the
        # first slot frees (t=2), latency to 3, transfer 3→4; the fourth
        # enters at t=3, latency to 4, transfer 4→5.
        assert env.now == pytest.approx(5.0)

    def test_bandwidth_is_shared_not_multiplied(self):
        """QD-parallel requests must not exceed rated device bandwidth."""
        env = Environment()
        dev = self.make(env)  # 100 B/s rated

        def reader():
            yield from dev.read(100)  # 1 s of transfer each

        t0 = env.now
        for _ in range(2):
            env.process(reader())
        env.run()
        # 200 B total at 100 B/s → at least 2 s of transfer time.
        assert env.now - t0 >= 2.0

    def test_capacity_accounting(self):
        env = Environment()
        dev = self.make(env)
        dev.allocate(600)
        assert dev.free_bytes == 400
        dev.release(100)
        assert dev.used_bytes == 500

    def test_allocate_over_capacity_raises(self):
        env = Environment()
        dev = self.make(env)
        dev.allocate(900)
        with pytest.raises(DeviceFull) as exc:
            dev.allocate(200)
        assert str(exc.value) == "requested 200 bytes, 100 free"

    def test_release_more_than_used_raises(self):
        env = Environment()
        dev = self.make(env)
        with pytest.raises(ValueError):
            dev.release(1)

    def test_negative_io_rejected(self):
        env = Environment()
        dev = self.make(env)

        def proc():
            yield from dev.read(-1)

        env.process(proc())
        with pytest.raises(ValueError):
            env.run()

    @pytest.mark.parametrize("factor", [0.5, float("nan")])
    def test_degrade_rejects_factor_below_one(self, factor):
        dev = self.make(Environment())
        with pytest.raises(ValueError):
            dev.degrade(factor)
        assert dev.slow_factor == 1.0

    def test_metrics_recorded(self):
        env = Environment()
        dev = self.make(env)

        def proc():
            yield from dev.read(100)

        env.process(proc())
        env.run()
        assert dev.metrics.counter("nvme.reads").value == 1


class TestFabric:
    def make(self, env, n=4, bw=100.0, lat=1.0, overhead=0.0):
        spec = NetworkSpec(
            nic_bandwidth=bw,
            link_latency=lat,
            per_message_overhead=overhead,
            loopback_bandwidth=1000.0,
        )
        return Fabric(env, spec, n)

    def test_remote_transfer_time(self):
        env = Environment()
        fab = self.make(env)

        def proc():
            yield from fab.transfer(0, 1, 200)  # 1 + 200/100 = 3s

        env.process(proc())
        env.run()
        assert env.now == pytest.approx(3.0)

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_link_fault_rejects_bad_extra_delay(self, delay):
        fab = self.make(Environment())
        with pytest.raises(SimulationError):
            fab.set_link_fault(0, 1, extra_delay=delay)

    def test_local_transfer_uses_loopback(self):
        env = Environment()
        fab = self.make(env)

        def proc():
            yield from fab.transfer(2, 2, 500)  # 500/1000 = 0.5s

        env.process(proc())
        env.run()
        assert env.now == pytest.approx(0.5)

    def test_sender_contention_serializes(self):
        env = Environment()
        fab = self.make(env)

        def proc(dst):
            yield from fab.transfer(0, dst, 100)  # 2s each

        env.process(proc(1))
        env.process(proc(2))
        env.run()
        assert env.now == pytest.approx(4.0)  # same TX port

    def test_receiver_contention_serializes(self):
        env = Environment()
        fab = self.make(env)

        def proc(src):
            yield from fab.transfer(src, 3, 100)

        env.process(proc(0))
        env.process(proc(1))
        env.run()
        assert env.now == pytest.approx(4.0)  # same RX port

    def test_disjoint_pairs_parallel(self):
        env = Environment()
        fab = self.make(env)

        def proc(src, dst):
            yield from fab.transfer(src, dst, 100)

        env.process(proc(0, 1))
        env.process(proc(2, 3))
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_bidirectional_full_duplex(self):
        env = Environment()
        fab = self.make(env)

        def proc(src, dst):
            yield from fab.transfer(src, dst, 100)

        env.process(proc(0, 1))
        env.process(proc(1, 0))
        env.run()
        assert env.now == pytest.approx(2.0)  # TX and RX are separate ports

    def test_permutation_of_flows_sees_no_core_contention(self):
        env = Environment()
        n = 8
        fab = self.make(env, n=n)

        def proc(src, dst):
            yield from fab.transfer(src, dst, 100)

        for i in range(n):
            env.process(proc(i, (i + 1) % n))
        env.run()
        assert env.now == pytest.approx(2.0)  # one transfer time

    def test_invalid_node_rejected(self):
        env = Environment()
        fab = self.make(env)

        def proc():
            yield from fab.transfer(0, 99, 10)

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_metrics(self):
        env = Environment()
        fab = self.make(env)

        def proc():
            yield from fab.transfer(0, 1, 100)
            yield from fab.transfer(1, 1, 100)

        env.process(proc())
        env.run()
        assert fab.metrics.counter("fabric.remote_transfers").value == 1
        assert fab.metrics.counter("fabric.local_transfers").value == 1


class TestAllocation:
    def test_build(self):
        env = Environment()
        alloc = Allocation(env, TESTING, n_nodes=4)
        assert alloc.n_nodes == 4
        assert [n.node_id for n in alloc] == [0, 1, 2, 3]

    def test_too_many_nodes_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Allocation(env, TESTING, n_nodes=TESTING.total_nodes + 1)

    def test_zero_nodes_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Allocation(env, TESTING, n_nodes=0)

    def test_aggregates(self):
        env = Environment()
        alloc = Allocation(env, TESTING, n_nodes=3)
        assert [n.nvme.spec for n in alloc] == [TESTING.node.nvme] * 3

    def test_nodes_have_independent_devices(self):
        env = Environment()
        alloc = Allocation(env, TESTING, n_nodes=2)
        alloc[0].nvme.allocate(100)
        assert alloc[1].nvme.used_bytes == 0
