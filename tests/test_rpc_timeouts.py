"""RPC timeout-path tests: deadline expiry, message loss, hangs, and
death-mid-call — the silent failures only a caller's deadline can see."""

import pytest

from repro.cluster import Fabric, NetworkSpec
from repro.rpc import RPCEndpoint, RPCError, RPCTimeout
from repro.simcore import Environment, Interrupt


def make_fabric(env, n=4):
    spec = NetworkSpec(
        nic_bandwidth=1e6,
        link_latency=0.001,
        per_message_overhead=0.0,
        loopback_bandwidth=1e7,
    )
    return Fabric(env, spec, n)


def make_pair(env, fab, handler_delay=0.0, reply="ok"):
    server = RPCEndpoint(env, fab, node_id=1, name="srv")
    client = RPCEndpoint(env, fab, node_id=0, name="cli")

    def handler(payload, src):
        yield env.timeout(handler_delay)
        return reply

    server.register("op", handler)
    return server, client


def run_call(env, client, server, caught, **kw):
    def caller():
        try:
            value = yield from client.call(server, "op", **kw)
        except RPCError as err:
            caught.append((env.now, err))
        else:
            caught.append((env.now, value))

    env.process(caller())


class TestDeadlineExpiry:
    def test_slow_handler_times_out_at_deadline(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=10.0)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run(until=2.0)
        t, err = caught[0]
        assert isinstance(err, RPCTimeout)
        # Deadline starts after the request crosses the wire (~1 ms).
        assert t == pytest.approx(0.5, abs=0.01)

    def test_fast_handler_beats_deadline(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=0.01)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run(until=2.0)
        t, value = caught[0]
        assert value == "ok"
        assert t < 0.5

    def test_late_reply_after_timeout_is_harmless(self):
        """The abandoned handler finishes after the caller gave up; the
        kernel must not crash on the orphaned reply."""
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=1.0)
        caught = []
        run_call(env, client, server, caught, timeout=0.1)
        env.run()  # drain everything, including the late handler
        assert isinstance(caught[0][1], RPCTimeout)


class TestMessageLoss:
    def test_lost_request_times_out_after_full_deadline(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        fab.set_link_fault(0, 1, drop_prob=1.0)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        t, err = caught[0]
        assert isinstance(err, RPCTimeout)
        assert "request lost" in str(err)
        assert t == pytest.approx(0.5, abs=0.01)
        assert fab.metrics.counter("fabric.dropped_messages").value >= 1

    def test_lost_request_without_deadline_fails_immediately(self):
        # timeout=None cannot wait forever on a lost message; the raise
        # is immediate (the no-deadline path is for trusted local use).
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        fab.set_link_fault(0, 1, drop_prob=1.0)
        caught = []
        run_call(env, client, server, caught)
        env.run()
        assert isinstance(caught[0][1], RPCTimeout)

    def test_lost_reply_times_out_and_handler_side_effects_land(self):
        """The link fails once the request has crossed it: the handler
        runs to completion, the caller sees only silence."""
        env = Environment()
        fab = make_fabric(env)
        server = RPCEndpoint(env, fab, node_id=1, name="srv")
        client = RPCEndpoint(env, fab, node_id=0, name="cli")
        served = []

        def handler(payload, src):
            fab.set_link_fault(0, 1, drop_prob=1.0)
            yield env.timeout(0.01)
            served.append(payload)
            return "reply"

        server.register("op", handler)
        caught = []
        run_call(env, client, server, caught, payload="x", timeout=0.5)
        env.run()
        assert served == ["x"]  # request got through
        assert isinstance(caught[0][1], RPCTimeout)

    def test_clear_link_fault_restores_delivery(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        fab.set_link_fault(0, 1, drop_prob=1.0)
        fab.clear_link_fault(0, 1)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        assert caught[0][1] == "ok"

    def test_loopback_immune_to_partition(self):
        env = Environment()
        fab = make_fabric(env)
        server = RPCEndpoint(env, fab, node_id=0, name="srv")
        client = RPCEndpoint(env, fab, node_id=0, name="cli")

        def handler(payload, src):
            yield env.timeout(0)
            return "local"

        server.register("op", handler)
        fab.isolate(0)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        assert caught[0][1] == "local"


class TestDeathMidCall:
    def test_server_dies_while_serving_raises_rpcerror(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=0.2)
        caught = []
        run_call(env, client, server, caught, timeout=5.0)

        def killer():
            yield env.timeout(0.1)  # mid-handler
            server.shutdown()

        env.process(killer())
        env.run()
        t, err = caught[0]
        assert isinstance(err, RPCError) and not isinstance(err, RPCTimeout)
        assert "died" in str(err)
        assert t < 5.0  # death is detected as an error, not a timeout

    def test_dead_endpoint_fails_fast_not_timeout(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        server.shutdown()
        caught = []
        run_call(env, client, server, caught, timeout=5.0)
        env.run()
        t, err = caught[0]
        assert isinstance(err, RPCError) and not isinstance(err, RPCTimeout)
        assert t == pytest.approx(0.0, abs=0.01)


class TestHang:
    def test_hung_endpoint_only_deadline_detects(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        server.hang()
        assert server.alive  # hung is not dead: no error signal exists
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        t, err = caught[0]
        assert isinstance(err, RPCTimeout)
        assert t == pytest.approx(0.5, abs=0.01)

    def test_unhang_restores_service(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        server.hang()
        server.unhang()
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        assert caught[0][1] == "ok"

    def test_restart_clears_hang(self):
        env = Environment()
        fab = make_fabric(env)
        server, _ = make_pair(env, fab)
        server.hang()
        server.restart()
        assert not server.hung and server.alive


class TestDeadlineTimers:
    """A deadline timer is cancelled once the call no longer needs it,
    so dead timers do not pile up in the event queue."""

    @staticmethod
    def queue_after_calls(k):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=0.01)
        replies = []

        def caller():
            for _ in range(k):
                replies.append((yield from client.call(server, "op", timeout=5.0)))

        env.run(until=env.process(caller()))
        assert replies == ["ok"] * k
        return len(env._queue), env.now

    def test_answered_calls_leave_no_deadline_behind(self):
        depth_few, now_few = self.queue_after_calls(3)
        depth_many, now_many = self.queue_after_calls(60)
        assert depth_many == depth_few
        assert now_many < 5.0  # every call, not only the last, was answered

    def test_interrupted_caller_leaves_no_deadline_behind(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=0.2)
        interrupted = []

        def caller():
            try:
                yield from client.call(server, "op", timeout=10.0)
            except Interrupt:
                interrupted.append(env.now)

        proc = env.process(caller())

        def interrupter():
            yield env.timeout(0.05)
            proc.interrupt("give up")

        env.process(interrupter())
        env.run()
        assert interrupted == [0.05]
        # The drain ends with the abandoned handler, not at the deadline.
        assert env.now < 1.0


class TestReplyAtTheDeadline:
    """A reply and a deadline due at the same instant.  The reply is
    posted to the caller's ``done`` at that instant, and ``done`` is
    scheduled behind the deadline timer (lower seq first), so the
    deadline fires first and wins in either kernel order of the two
    posting steps."""

    @staticmethod
    def call(handler, timeout=0.5):
        """One call whose 0.5 s deadline falls due at exactly 1.0 s: a
        192-byte header takes 0.25 s + 192 / 768 s = 0.5 s.  ``handler``
        gets a timer due at 1.0 s that was set before the deadline."""
        env = Environment()
        spec = NetworkSpec(
            nic_bandwidth=768.0,
            link_latency=0.25,
            per_message_overhead=0.0,
            loopback_bandwidth=1e7,
        )
        fab = Fabric(env, spec, 2)
        gate = env.timeout(1.0)
        server = RPCEndpoint(env, fab, node_id=1, name="srv")
        client = RPCEndpoint(env, fab, node_id=0, name="cli")
        server.register("op", lambda payload, src: handler(env, gate))
        caught = []
        run_call(env, client, server, caught, timeout=timeout)
        env.run()
        return caught

    @staticmethod
    def reply_over_the_wire(env, gate):
        # The reply's 0.5 s crossing starts after the deadline was set.
        yield env.timeout(0.0)
        return "ok"

    def test_reply_posted_after_the_deadline_fires_loses(self):
        [(t, err)] = self.call(self.reply_over_the_wire)
        assert t == 1.0
        assert isinstance(err, RPCTimeout)

    def test_reply_posted_before_the_deadline_fires_still_loses(self):
        # The gate fires first at 1.0 s, and the handler's error reply is
        # posted at once, a step ahead of the deadline.
        def handler(env, gate):
            yield gate
            raise ValueError("at the deadline")

        [(t, err)] = self.call(handler)
        assert t == 1.0
        assert isinstance(err, RPCTimeout)

    def test_reply_just_before_the_deadline_wins(self):
        caught = self.call(self.reply_over_the_wire, timeout=0.5 + 2.0**-20)
        assert caught == [(1.0, "ok")]


class TestLateFailure:
    def test_handler_raising_after_timeout_is_harmless(self):
        """The caller gave up; the handler then raises.  Its error reply
        finds the caller's ``done`` taken and is dropped: no unhandled
        failure and no "already triggered" error reach the kernel."""
        env = Environment()
        fab = make_fabric(env)
        server = RPCEndpoint(env, fab, node_id=1, name="srv")
        client = RPCEndpoint(env, fab, node_id=0, name="cli")
        finished = []

        def handler(payload, src):
            yield env.timeout(1.0)
            finished.append(env.now)
            raise ValueError("after the caller left")

        server.register("op", handler)
        caught = []
        run_call(env, client, server, caught, timeout=0.1)
        env.run()  # drains past the handler's failure
        [(t, err)] = caught
        assert isinstance(err, RPCTimeout)
        assert t == pytest.approx(0.1, abs=0.01)
        assert finished and finished[0] > t
