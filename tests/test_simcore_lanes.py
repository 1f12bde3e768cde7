"""The zero-delay lanes: events scheduled at ``now`` bypass the heap but
fire in exactly the ``(time, priority, seq)`` order a single heap gives.

Timeouts and sleeps, and nothing else, go on the heap (``Timeout(0)``
and ``yield 0`` too); every other event goes to the FIFO lane of its
priority.  ``step()`` merges the urgent lane, the normal lane and the
heap head (docs/INTERNALS.md §1, "Scheduling sites").
"""

import heapq
import math
import sys

import pytest
from hypothesis import given, settings

from repro.simcore import Environment, EventTrace, Interrupt, Resource, SimulationError
from repro.simcore.engine import URGENT

from .kernel_harness import Recorder, fired, programs, run_program


def heap_order(calls, cancelled):
    """The order one ``(time, priority, seq)`` heap fires the schedule a
    :class:`Recorder` saw in: each event pops the head of a heap that
    holds every uncancelled entry scheduled before it began."""
    heap, order = [], []
    for call in calls:
        if call[0] == "schedule" and call[1] not in cancelled:
            heapq.heappush(heap, (call[3], call[4], call[1]))
        elif call[0] == "begin":
            order.append(heapq.heappop(heap))
    return order + sorted(heap)


@settings(max_examples=120, deadline=None)
@given(programs())
def test_lanes_fire_in_heap_order(program):
    run = run_program(program)
    cancelled = set(run.cancelled)
    scheduled = {call[1]: call[3:] for call in run.calls if call[0] == "schedule"}
    events = fired(run.calls)
    fired_seqs = [event[2] for event in events]
    # Every scheduled, uncancelled seq fires exactly once.
    assert len(fired_seqs) == len(set(fired_seqs))
    assert set(fired_seqs) == set(scheduled) - cancelled
    # Each fires at its due time, with the priority it was queued at.
    for time, priority, seq, label, _ in events:
        assert (time, priority) == scheduled[seq]
        if label == "Initialize" or label.startswith("Process:"):
            assert priority == URGENT
    # Keys strictly increase among events pending together: the stream
    # is the order a single (time, priority, seq) heap gives.
    assert [event[:3] for event in events] == heap_order(run.calls, cancelled)


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
    env, callers = every_site_run(monkeypatch, lambda env: trace, Recorder)
    assert set(callers) == SCHEDULING_SITES
    # one note per scheduled event, and the stream is the same as with
    # the trace alone
    assert len(callers) == next(env._seq)
    assert (trace.count, trace.fingerprint) == (alone.count, alone.fingerprint)
