"""Unit tests for the discrete-event engine."""

import pytest

from repro.check.races import RaceSanitizer
from repro.simcore import (
    AllOf,
    AnyOf,
    Environment,
    EventTrace,
    Interrupt,
    Resource,
    SimProfiler,
    SimulationError,
    Store,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.5)

    env.process(proc())
    env.run()
    assert env.now == 3.5


def test_timeout_value_passthrough():
    env = Environment()
    got = []

    def proc():
        v = yield env.timeout(1.0, value="hello")
        got.append(v)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value_via_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    assert env.run(env.process(proc())) == 42


def test_sequential_timeouts_accumulate():
    env = Environment()
    marks = []

    def proc():
        yield env.timeout(1)
        marks.append(env.now)
        yield env.timeout(2)
        marks.append(env.now)

    env.process(proc())
    env.run()
    assert marks == [1.0, 3.0]


def test_fifo_order_at_equal_time():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in "abc":
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1)

    env.process(proc())
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_time_on_an_empty_queue_moves_the_clock():
    env = Environment()
    env.run(until=5)
    assert env.now == 5.0
    env.run(until=7.5)
    assert env.now == 7.5


def test_run_until_time_moves_the_clock_past_a_drained_queue():
    env = Environment()
    env.timeout(1)
    env.run(until=5)
    assert env.now == 5.0
    assert env.peek() == float("inf")


def test_run_until_past_time_raises():
    env = Environment()
    env.process(iter_timeout(env))
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_nan_times_are_rejected():
    env = Environment()
    fired = []
    env.timeout(1).callbacks.append(fired.append)
    with pytest.raises(SimulationError, match="must be greater than now"):
        env.run(until=float("nan"))
    # Nothing fired and the clock did not move.
    assert env.now == 0.0 and not fired
    env.run(until=2)
    assert env.now == 2.0 and len(fired) == 1


def iter_timeout(env):
    while True:
        yield env.timeout(1)


def test_process_waiting_on_process():
    env = Environment()

    def child():
        yield env.timeout(2)
        return "done"

    def parent():
        result = yield env.process(child())
        return result

    assert env.run(env.process(parent())) == "done"
    assert env.now == 2


def test_event_manual_trigger():
    env = Environment()
    evt = env.event()
    results = []

    def waiter():
        v = yield evt
        results.append((env.now, v))

    def trigger():
        yield env.timeout(4)
        evt.succeed(99)

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert results == [(4.0, 99)]


def test_event_double_trigger_fails():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_failed_event_raises_in_waiter():
    env = Environment()
    evt = env.event()
    caught = []

    def waiter():
        try:
            yield evt
        except ValueError as e:
            caught.append(str(e))

    def trigger():
        yield env.timeout(1)
        evt.fail(ValueError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("crash")

    env.process(bad())
    with pytest.raises(RuntimeError, match="crash"):
        env.run()


def test_exception_captured_by_waiting_parent():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("inner")

    def parent():
        try:
            yield env.process(bad())
        except RuntimeError:
            return "handled"

    assert env.run(env.process(parent())) == "handled"


def test_interrupt_running_process():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(v):
        yield env.timeout(3)
        v.interrupt("stop now")

    v = env.process(victim())
    env.process(interrupter(v))
    env.run()
    assert log == [(3.0, "stop now")]


def test_interrupt_then_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(5)
        log.append(env.now)

    def interrupter(v):
        yield env.timeout(2)
        v.interrupt()

    v = env.process(victim())
    env.process(interrupter(v))
    env.run()
    assert log == [7.0]


def test_interrupt_dead_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_self_interrupt_is_error():
    env = Environment()
    errors = []

    def selfish(handle):
        yield env.timeout(1)
        try:
            handle[0].interrupt()
        except SimulationError:
            errors.append(True)

    handle = []
    handle.append(env.process(selfish(handle)))
    env.run()
    assert errors == [True]


def test_allof_waits_for_all():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        result = yield AllOf(env, [t1, t2])
        return (env.now, sorted(result.values()))

    assert env.run(env.process(proc())) == (5.0, ["a", "b"])


def test_anyof_returns_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = yield AnyOf(env, [t1, t2])
        return (env.now, list(result.values()))

    assert env.run(env.process(proc())) == (1.0, ["fast"])


def test_condition_operators():
    env = Environment()

    def proc():
        a = env.timeout(1, value=1)
        b = env.timeout(2, value=2)
        yield a & b
        return env.now

    assert env.run(env.process(proc())) == 2.0


def test_empty_allof_triggers_immediately():
    env = Environment()

    def proc():
        result = yield AllOf(env, [])
        return result

    assert env.run(env.process(proc())) == {}


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield "42"  # neither an event nor a delay

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_peek_and_step():
    env = Environment()
    env.timeout(3)
    assert env.peek() == 3.0
    env.step()
    assert env.now == 3.0
    assert env.peek() == float("inf")


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_event_already_processed():
    env = Environment()
    t = env.timeout(1, value="x")
    env.run()
    assert env.run(until=t) == "x"


def test_run_until_never_triggered_event_raises():
    env = Environment()
    evt = env.event()
    env.timeout(1)
    with pytest.raises(SimulationError, match="never"):
        env.run(until=evt)


def test_many_processes_determinism():
    def run_once():
        env = Environment()
        trace = []

        def worker(i):
            for k in range(5):
                yield env.timeout((i % 3) + 0.5)
                trace.append((env.now, i, k))

        for i in range(20):
            env.process(worker(i))
        env.run()
        return trace

    assert run_once() == run_once()


def test_process_is_alive_flag():
    env = Environment()

    def proc():
        yield env.timeout(2)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_cross_environment_event_rejected():
    env1, env2 = Environment(), Environment()
    foreign = env2.timeout(1)

    def proc():
        yield foreign

    env1.process(proc())
    with pytest.raises(SimulationError):
        env1.run()


@pytest.mark.parametrize("processed", [False, True], ids=["pending", "processed"])
def test_run_until_a_foreign_event_is_rejected(processed):
    env, other = Environment(), Environment()
    foreign = other.timeout(1, value="x")
    if processed:
        other.run()
    ran = []

    def proc():
        yield env.timeout(5)
        ran.append(env.now)

    env.process(proc())
    with pytest.raises(SimulationError, match="different Environment"):
        env.run(until=foreign)
    assert env.now == 0.0
    assert ran == []


# ---------------------------------------------------------------------------
# Bare runs match observed runs.  Every observed run goes through step()
# and the scheduling sites' observer branch, so the fingerprint oracle
# never sees the bare path; these tests compare the two directly.
# ---------------------------------------------------------------------------


def _model(env):
    """A small model that reaches every scheduling site: timeouts,
    process start and exit, granted and queued resource requests, store
    puts and gets, conditions, an interrupt, a handled failure and a
    manually triggered event.  Returns the list it logs into."""
    out = []
    res = Resource(env, capacity=2)
    store = Store(env)
    n_workers, n_items = 5, 3

    def worker(i):
        for k in range(n_items):
            with res.request() as req:
                yield req
                yield env.timeout(0.5 + (i % 3) * 0.25)
            yield store.put((i, k))
        out.append(("worker", i, env.now))

    def consumer():
        got = 0
        while got < n_workers * n_items:
            get = store.get()
            fired = yield get | env.timeout(0.4)
            if get in fired:
                got += 1
                out.append(("item", fired[get], env.now))
            else:
                out.append(("idle", env.now))

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            out.append(("interrupted", intr.cause, env.now))

    def failing():
        yield env.timeout(0.3)
        raise ValueError("handled")

    def signaller(evt):
        yield env.timeout(0.7)
        evt.succeed("signal")

    def parent(victim):
        yield env.timeout(1.0)
        victim.interrupt("wake")
        try:
            yield env.process(failing())
        except ValueError as err:
            out.append(("caught", str(err), env.now))
        evt = env.event()
        env.process(signaller(evt))
        out.append(("signalled", (yield evt), env.now))
        return "parent done"

    for i in range(n_workers):
        env.process(worker(i), name=f"worker{i}")
    env.process(consumer())
    main = env.process(parent(env.process(sleeper())))
    return out, main


class BeginOnly:
    """An observer that defines one method of the protocol."""

    def begin_event(self, time, priority, seq, label):
        pass


OBSERVERS = {
    None: (),
    "trace": (EventTrace,),
    "profiler": (SimProfiler,),
    "sanitizer": (RaceSanitizer,),
    "all": (EventTrace, RaceSanitizer, SimProfiler),
    "begin_event only": (BeginOnly,),
}


def _run_model(observer, until):
    env = Environment()
    for make in OBSERVERS[observer]:
        env.observe(make())
    out, main = _model(env)
    if until == "drain":
        result = env.run()
    elif until == "time":
        result = env.run(until=1000.0)
    else:
        result = env.run(until=main)
    return env.now, next(env._seq), out, result


@pytest.mark.parametrize("until", ["drain", "time", "event"])
@pytest.mark.parametrize("observer", [o for o in OBSERVERS if o])
def test_bare_run_matches_observed_run(observer, until):
    bare = _run_model(None, until)
    assert bare == _run_model(observer, until)
    _, scheduled, out, _ = bare
    assert scheduled > 50 and len(out) >= 10


def test_every_scheduling_site_notes_the_observers():
    env = Environment()
    profiler = SimProfiler()
    env.observe(profiler)
    _model(env)
    env.run()
    # one note per scheduled event: no inlined site skips the hook
    assert profiler.total_scheduled == next(env._seq)


@pytest.mark.parametrize("kind", ["process", "event"])
@pytest.mark.parametrize("until", ["drain", "time", "event"])
@pytest.mark.parametrize("traced", [False, True])
def test_unhandled_failure_raises_from_every_run_mode(traced, until, kind):
    env = Environment()
    if traced:
        env.observe(EventTrace())

    def bad():
        yield env.timeout(1)
        if kind == "process":
            raise RuntimeError("unhandled")
        env.event().fail(RuntimeError("unhandled"))

    env.process(bad())
    stop = env.timeout(5)
    with pytest.raises(RuntimeError, match="unhandled"):
        if until == "drain":
            env.run()
        elif until == "time":
            env.run(until=5)
        else:
            env.run(until=stop)
    assert env.now == 1.0


def _attach_run(attach):
    """Run a model with a process that, at t=2.5, either attaches
    ``attach`` or (with ``attach=None``) notes the count of the trace
    attached from the start.  Returns (trace, mark)."""
    env = Environment()
    full = EventTrace(keep_all=True)
    if attach is None:
        env.observe(full)
    mark = []

    def attacher():
        yield env.timeout(2.5)
        if attach is None:
            mark.append(full.count)
        else:
            env.observe(attach)

    env.process(attacher())
    _model(env)
    env.run()
    return full, mark


def test_trace_attached_mid_run_sees_exactly_the_later_events():
    full, (mark,) = _attach_run(None)
    late = EventTrace(keep_all=True)
    _attach_run(late)
    assert 0 < late.count == full.count - mark
    assert [r[1:] for r in late.records] == [r[1:] for r in full.records[mark:]]


def test_two_traces_attached_at_once_agree():
    env = Environment()
    a, b = EventTrace(), EventTrace()
    env.observe(a)
    env.observe(b)
    _model(env)
    env.run()
    assert a.count > 50
    assert (a.count, a.fingerprint) == (b.count, b.fingerprint)


def test_observer_removed_mid_run_sees_no_later_event():
    env = Environment()
    kept, dropped = EventTrace(keep_all=True), EventTrace(keep_all=True)
    env.observe(kept)
    env.observe(dropped)
    mark = []

    def remover():
        yield env.timeout(2.5)
        mark.append(kept.count)
        env.unobserve(dropped)

    env.process(remover())
    _model(env)
    env.run()
    (mark,) = mark
    assert 0 < mark < kept.count
    assert dropped.records == kept.records[:mark]


def test_noting_follows_the_observers_that_take_notes():
    env = Environment()
    trace, sanitizer = EventTrace(), RaceSanitizer()
    env.observe(trace)
    assert not env.noting
    env.observe(sanitizer)
    assert env.noting
    env.unobserve(sanitizer)
    assert not env.noting


@pytest.mark.parametrize("traced", [False, True])
def test_kernel_checks_hold_bare_and_traced(traced):
    def new_env():
        env = Environment()
        if traced:
            env.observe(EventTrace())
        return env

    with pytest.raises(SimulationError, match="Negative delay"):
        new_env().timeout(-1)
    with pytest.raises(SimulationError, match="not a generator"):
        new_env().process(42)

    env = new_env()

    def yields_non_event():
        yield "42"  # neither an event nor a delay

    env.process(yields_non_event())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()

    env = new_env()
    foreign = Environment().timeout(1)

    def yields_foreign():
        yield foreign

    env.process(yields_foreign())
    with pytest.raises(SimulationError, match="different Environment"):
        env.run()
