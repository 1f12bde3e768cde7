"""The zero-delay lanes: events scheduled at ``now`` bypass the heap but
fire in exactly the ``(time, priority, seq)`` order a single heap gives.

Timeouts, and only timeouts, go on the heap (``Timeout(0)`` too); every
other event goes to the FIFO lane of its priority.  ``step()`` merges the
urgent lane, the normal lane and the heap head (docs/INTERNALS.md §1,
"Scheduling sites").
"""

import heapq
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Environment, EventTrace, Interrupt, Resource, SimulationError
from repro.simcore.engine import NORMAL, URGENT, Process, Timeout


class Ledger:
    """Observer that keeps every schedule and every fired event.

    For each scheduled seq it records the time it is due, the priority
    of the structure it went to and how many events had begun by then;
    for each fired event, its ``(time, priority, seq, label)``.
    """

    def __init__(self, env):
        self.env = env
        self.scheduled = {}  # seq -> (due, priority, n_begun)
        self.fired = []
        self.last = None

    def note_schedule(self, seq, delay):
        env = self.env
        if env._urgent and env._urgent[-1][0] == seq:
            priority = URGENT
        else:
            priority = NORMAL
        self.scheduled[seq] = (env.now + delay, priority, len(self.fired))
        self.last = seq

    def begin_event(self, time, priority, seq, label):
        self.fired.append((time, priority, seq, label))

    def end_event(self, n_callbacks=0):
        pass


def heap_order(scheduled, cancelled):
    """The order one ``(time, priority, seq)`` heap fires the same
    schedule in: before the k-th event begins, it holds every entry
    scheduled while fewer than k+1 events had begun."""
    by_begun = {}
    for seq, (due, priority, n_begun) in scheduled.items():
        if seq not in cancelled:
            by_begun.setdefault(n_begun, []).append((due, priority, seq))
    heap, order = [], []
    k = 0
    while True:
        for entry in by_begun.pop(k, ()):
            heapq.heappush(heap, entry)
        if not heap:
            assert not by_begun
            return order
        order.append(heapq.heappop(heap))
        k += 1


OPS = st.one_of(
    st.tuples(st.just("sleep"), st.integers(1, 4)),
    st.tuples(st.just("zero"), st.just(0)),
    st.tuples(st.just("succeed"), st.just(0)),
    st.tuples(st.just("fail"), st.just(0)),
    st.tuples(st.just("cancel"), st.integers(0, 4)),
    st.tuples(st.just("grab"), st.integers(0, 3)),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
    st.tuples(st.just("join"), st.integers(0, 3)),
    st.tuples(st.just("race"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
)


@st.composite
def programs(draw):
    """A few actors, each a list of ops, and the stop times of a chunked
    run.  Delays sit on a coarse grid so that times tie."""
    n = draw(st.integers(1, 6))
    actors = [draw(st.lists(OPS, max_size=12)) for _ in range(n)]
    stops = draw(st.lists(st.integers(1, 40), max_size=3, unique=True))
    return actors, sorted(s / 2 for s in stops)


def interruptible(victim):
    """True when an interrupt will find ``victim`` still waiting.  It
    fires URGENT at ``now``, ahead of everything but an earlier process
    exit; a victim whose target is such an exit may be gone by then."""
    target = victim.target
    return target is not None and not (isinstance(target, Process) and target.triggered)


def run_program(actors, stops):
    env = Environment()
    ledger = Ledger(env)
    env.observe(ledger)
    res = Resource(env, capacity=1)
    procs = []
    interrupted = set()
    cancelled = set()

    def child(delay):
        yield env.timeout(delay / 2)
        return delay

    def actor(ops):
        for op, arg in ops:
            try:
                if op == "sleep":
                    yield env.timeout(arg / 2)
                elif op == "zero":
                    yield env.timeout(0)
                elif op == "succeed":
                    yield env.event().succeed(arg)
                elif op == "fail":
                    try:
                        # Defused: an interrupt may leave it unwaited.
                        yield env.event().fail(ValueError()).defused()
                    except ValueError:
                        pass
                elif op == "cancel":
                    t = env.timeout(arg / 2)
                    cancelled.add(ledger.last)
                    t.cancel()
                elif op == "grab":
                    with (yield res):
                        yield env.timeout(arg / 2)
                elif op == "spawn":
                    env.process(child(arg))
                elif op == "join":
                    yield env.process(child(arg))
                elif op == "race":
                    yield env.timeout(arg / 2) | env.process(child(arg))
                elif op == "interrupt":
                    victim = procs[arg % len(procs)]
                    if interruptible(victim) and victim not in interrupted:
                        interrupted.add(victim)
                        victim.interrupt("stop")
            except Interrupt:
                pass

    for ops in actors:
        procs.append(env.process(actor(ops)))
    for stop in stops:
        if stop > env.now:
            env.run(until=stop)
        # Between runs the lanes are empty and only timeouts are queued.
        assert not env._urgent and not env._normal
        assert all(isinstance(e[3], Timeout) and e[1] == NORMAL for e in env._queue)
    env.run(until=procs[-1])
    env.run()
    assert env.peek() == math.inf
    return ledger, cancelled


@settings(max_examples=120, deadline=None)
@given(programs())
def test_lanes_fire_in_heap_order(program):
    ledger, cancelled = run_program(*program)
    fired_seqs = [rec[2] for rec in ledger.fired]
    # Every scheduled, uncancelled seq fires exactly once.
    assert len(fired_seqs) == len(set(fired_seqs))
    assert set(fired_seqs) == set(ledger.scheduled) - cancelled
    # Each fires at its due time, with the priority it was queued at.
    for time, priority, seq, label in ledger.fired:
        assert (time, priority) == ledger.scheduled[seq][:2]
        if label == "Initialize" or label.startswith("Process:"):
            assert priority == URGENT
    # Keys strictly increase among events pending together: the stream
    # is the order a single (time, priority, seq) heap gives.
    assert [rec[:3] for rec in ledger.fired] == heap_order(ledger.scheduled, cancelled)


@pytest.mark.parametrize("first", ["timeout", "succeed"])
def test_timeout_zero_and_succeed_at_one_instant_fire_in_creation_order(first):
    env = Environment()
    order = []
    make = {
        "timeout": lambda: env.timeout(0),
        "succeed": lambda: env.event().succeed(),
    }
    second = "succeed" if first == "timeout" else "timeout"
    for name in (first, second):
        make[name]().callbacks.append(lambda e, name=name: order.append(name))
    env.run()
    assert order == [first, second]


def test_initialize_beats_an_earlier_normal_heap_entry_at_now():
    env = Environment()
    order = []
    env.timeout(0).callbacks.append(lambda e: order.append("timeout"))

    def proc():
        order.append("process")
        yield env.timeout(0)

    env.process(proc())
    env.run()
    assert order == ["process", "timeout"]


def test_peek_returns_now_while_a_lane_is_non_empty():
    env = Environment()
    env.timeout(5)
    env.run(until=2)
    env.event().succeed()
    assert env.peek() == 2
    env.step()
    assert env.now == 2 and env.peek() == 5


def test_run_until_time_drains_the_lanes_before_it_returns():
    env = Environment()
    fired = []
    env.event().succeed().callbacks.append(fired.append)
    env.run(until=1)
    assert len(fired) == 1 and env.now == 1


def test_step_on_an_empty_environment_still_raises():
    env = Environment()
    env.event().succeed()
    env.step()
    with pytest.raises(SimulationError, match="No scheduled events"):
        env.step()


def test_run_until_a_processed_failed_event_raises_again():
    env = Environment()

    def crash():
        yield env.timeout(1)
        raise ValueError("x")

    proc = env.process(crash())
    with pytest.raises(ValueError, match="x"):
        env.run(until=proc)
    with pytest.raises(ValueError, match="x"):
        env.run(until=proc)


def test_nan_delay_is_rejected():
    env = Environment()
    with pytest.raises(SimulationError, match="not a number"):
        env.timeout(float("nan"))
    assert env.peek() == math.inf


#: The eight sites that schedule an event, by the qualified name of the
#: function that calls ``Environment._note_schedule``; a process start
#: is scheduled in ``Process.__init__``, a sleep and a process exit in
#: ``Process._resume``, a grant on the spot in ``Resource.request`` and
#: one at a release in ``Resource.__exit__``.
SCHEDULING_SITES = {
    "Event.succeed",
    "Event.fail",
    "Timeout.__init__",
    "Process.__init__",
    "Process._resume",
    "Environment._schedule",
    "Resource.request",
    "Resource.__exit__",
}


def every_site_run(monkeypatch, *observers):
    """Run a model that schedules through every site, with the observers
    that ``observers`` (each a callable ``env -> observer``) make
    attached; returns the env and the callers of each schedule note."""
    callers = []
    note = Environment._note_schedule

    def counting(self, seq, delay):
        callers.append(sys._getframe(1).f_code.co_qualname)
        note(self, seq, delay)

    monkeypatch.setattr(Environment, "_note_schedule", counting)
    env = Environment()
    for make in observers:
        env.observe(make(env))
    res = Resource(env, capacity=1)

    def sleeper():
        try:
            yield env.timeout(5)
        except Interrupt:
            pass

    def actor(victim):
        with (yield res):
            yield env.timeout(1)
        yield 0.5  # a sleep, which Process._resume schedules
        yield env.event().succeed()
        try:
            yield env.event().fail(ValueError())
        except ValueError:
            pass
        victim.interrupt()

    def waiter():
        with (yield res):  # queued behind the actor: granted at its release
            pass

    env.process(actor(env.process(sleeper())))
    env.process(waiter())
    env.run()
    return env, callers


def test_a_trace_alone_takes_no_schedule_notes(monkeypatch):
    trace = EventTrace()
    _, callers = every_site_run(monkeypatch, lambda env: trace)
    assert trace.count > 0 and callers == []


def test_a_schedule_observer_hears_every_site(monkeypatch):
    alone = EventTrace()
    every_site_run(monkeypatch, lambda env: alone)
    trace = EventTrace()
    env, callers = every_site_run(monkeypatch, lambda env: trace, Ledger)
    assert set(callers) == SCHEDULING_SITES
    # one note per scheduled event, and the stream is the same as with
    # the trace alone
    assert len(callers) == next(env._seq)
    assert (trace.count, trace.fingerprint) == (alone.count, alone.fingerprint)
