"""Unit tests for the Mercury-like RPC layer."""

import pytest

from repro.cluster import Fabric, NetworkSpec
from repro.rpc import RPCEndpoint, RPCError, RPCTimeout
from repro.simcore import Environment


def make_fabric(env, n=4):
    spec = NetworkSpec(
        nic_bandwidth=1e6,
        link_latency=0.001,
        per_message_overhead=0.0,
        loopback_bandwidth=1e7,
    )
    return Fabric(env, spec, n)


def test_basic_call_roundtrip():
    env = Environment()
    fab = make_fabric(env)
    server = RPCEndpoint(env, fab, node_id=1, name="srv")
    client = RPCEndpoint(env, fab, node_id=0, name="cli")

    def handler(payload, src):
        yield env.timeout(0.5)
        return payload * 2

    server.register("double", handler)
    result = []

    def caller():
        value = yield from client.call(server, "double", payload=21)
        result.append((env.now, value))

    env.process(caller())
    env.run()
    assert result[0][1] == 42
    # request wire + 0.5s service + response wire
    assert result[0][0] > 0.5


def test_handler_receives_source_node():
    env = Environment()
    fab = make_fabric(env)
    server = RPCEndpoint(env, fab, node_id=2)
    client = RPCEndpoint(env, fab, node_id=3)
    seen = []

    def handler(payload, src):
        seen.append(src)
        return None
        yield

    # handler must be a generator function
    def gen_handler(payload, src):
        seen.append(src)
        yield env.timeout(0)
        return None

    server.register("op", gen_handler)

    def caller():
        yield from client.call(server, "op")

    env.process(caller())
    env.run()
    assert seen == [3]


def test_unknown_op_raises_rpcerror():
    env = Environment()
    fab = make_fabric(env)
    server = RPCEndpoint(env, fab, node_id=1)
    client = RPCEndpoint(env, fab, node_id=0)
    caught = []

    def caller():
        try:
            yield from client.call(server, "nope")
        except RPCError as e:
            caught.append(str(e))

    env.process(caller())
    env.run()
    assert caught and "no handler" in caught[0]


def test_handler_exception_propagates_as_rpcerror():
    env = Environment()
    fab = make_fabric(env)
    server = RPCEndpoint(env, fab, node_id=1)
    client = RPCEndpoint(env, fab, node_id=0)

    def handler(payload, src):
        yield env.timeout(0.1)
        raise ValueError("server-side bug")

    server.register("bad", handler)
    caught = []

    def caller():
        try:
            yield from client.call(server, "bad")
        except RPCError as e:
            caught.append(e)

    env.process(caller())
    env.run()
    assert caught and isinstance(caught[0].__cause__, ValueError)


def test_handler_raising_before_first_yield_propagates_as_rpcerror():
    env = Environment()
    fab = make_fabric(env)
    server = RPCEndpoint(env, fab, node_id=1)
    client = RPCEndpoint(env, fab, node_id=0)

    def handler(payload, src):
        if payload is None:
            raise KeyError("no payload")
        yield env.timeout(0.1)

    server.register("bad", handler)
    caught = []

    def caller():
        try:
            yield from client.call(server, "bad")
        except RPCError as e:
            caught.append(e)

    env.process(caller())
    env.run()
    assert caught and isinstance(caught[0].__cause__, KeyError)


def test_handler_runs_inside_the_serving_process():
    env = Environment()
    fab = make_fabric(env)
    server = RPCEndpoint(env, fab, node_id=1, name="srv")
    client = RPCEndpoint(env, fab, node_id=0, name="cli")
    names = []

    def handler(payload, src):
        names.append(env.active_process.name)
        yield env.timeout(0.1)
        names.append(env.active_process.name)
        return payload

    server.register("echo", handler)

    def caller():
        yield from client.call(server, "echo", payload=1)

    env.process(caller())
    env.run()
    assert names == [f"{server.name}.echo"] * 2


def test_call_to_dead_endpoint_raises():
    env = Environment()
    fab = make_fabric(env)
    server = RPCEndpoint(env, fab, node_id=1)
    client = RPCEndpoint(env, fab, node_id=0)
    server.shutdown()
    caught = []

    def caller():
        try:
            yield from client.call(server, "anything")
        except RPCError:
            caught.append(True)
        return None

    env.process(caller())
    env.run()
    assert caught == [True]


def test_endpoint_restart():
    env = Environment()
    fab = make_fabric(env)
    server = RPCEndpoint(env, fab, node_id=1)
    server.shutdown()
    assert not server.alive
    server.restart()
    assert server.alive


def test_timeout_raises_rpctimeout():
    env = Environment()
    fab = make_fabric(env)
    server = RPCEndpoint(env, fab, node_id=1)
    client = RPCEndpoint(env, fab, node_id=0)

    def slow(payload, src):
        yield env.timeout(100)
        return "late"

    server.register("slow", slow)
    caught = []

    def caller():
        try:
            yield from client.call(server, "slow", timeout=1.0)
        except RPCTimeout:
            caught.append(env.now)

    env.process(caller())
    env.run(until=5)
    assert caught and caught[0] == pytest.approx(1.0, abs=0.1)


def test_duplicate_registration_rejected():
    env = Environment()
    fab = make_fabric(env)
    ep = RPCEndpoint(env, fab, node_id=0)

    def h(payload, src):
        yield env.timeout(0)

    ep.register("op", h)
    with pytest.raises(Exception):
        ep.register("op", h)


def test_bulk_push():
    env = Environment()
    fab = make_fabric(env)
    pusher = RPCEndpoint(env, fab, node_id=2)

    def proc():
        yield from pusher.bulk_push(3, 500_000)

    env.process(proc())
    env.run()
    assert 0.5 < env.now < 0.6


def test_concurrent_calls_to_one_server_all_complete():
    env = Environment()
    fab = make_fabric(env, n=8)
    server = RPCEndpoint(env, fab, node_id=0)
    results = []

    def handler(payload, src):
        yield env.timeout(0.1)
        return payload

    server.register("echo", handler)

    def caller(i):
        client = RPCEndpoint(env, fab, node_id=i)
        value = yield from client.call(server, "echo", payload=i)
        results.append(value)

    for i in range(1, 8):
        env.process(caller(i))
    env.run()
    assert sorted(results) == list(range(1, 8))


def test_payload_bytes_affect_wire_time():
    env = Environment()
    fab = make_fabric(env)
    server = RPCEndpoint(env, fab, node_id=1)

    def handler(payload, src):
        yield env.timeout(0)
        return None

    server.register("op", handler)
    times = []

    for size in (0, 1_000_000):
        env2 = Environment()
        fab2 = make_fabric(env2)
        srv2 = RPCEndpoint(env2, fab2, node_id=1)

        def h2(payload, src, env2=env2):
            yield env2.timeout(0)
            return None

        srv2.register("op", h2)
        cli2 = RPCEndpoint(env2, fab2, node_id=0)

        def caller(cli2=cli2, srv2=srv2, size=size):
            yield from cli2.call(srv2, "op", payload_bytes=size)

        env2.process(caller())
        env2.run()
        times.append(env2.now)
    assert times[1] > times[0] + 0.9  # 1 MB at 1 MB/s
