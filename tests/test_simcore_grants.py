"""A process takes a resource slot by yielding the resource:
``with (yield res):`` is ``with res.request() as req: yield req``
without the request event.

The grant is the lane entry ``(seq, process)``, taken at the moment the
request event would have drawn its seq, and it fires as that event
would: label ``Request``, one callback, or none once an interrupt has
made it stale.  An interrupted waiter leaves the resource before the
throw, where the request's ``__exit__`` used to run.  So every observer
sees the same stream either way (docs/INTERNALS.md §1, "Resources and
stores").  :class:`RequestResource` below is the request-event resource
the kernel used to have, kept here as the reference.
"""

import math
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.races import RaceSanitizer
from repro.simcore import (
    Environment,
    Event,
    EventTrace,
    Interrupt,
    Resource,
    SimProfiler,
    SimulationError,
)


class Request(Event):
    """A request event; its class name is the label a grant keeps."""

    __slots__ = ("resource",)

    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_val, exc_tb):
        self.resource._cancel(self)


class RequestResource:
    """The reference: a FIFO resource whose grants are request events."""

    def __init__(self, env, capacity):
        self.env = env
        self.capacity = capacity
        self.users = {}
        self.queue = deque()

    @property
    def count(self):
        return len(self.users)

    @property
    def queued(self):
        return len(self.queue)

    def request(self):
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users[req] = None
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def _cancel(self, req):
        if req in self.users:
            del self.users[req]
            while self.queue and len(self.users) < self.capacity:
                nxt = self.queue.popleft()
                self.users[nxt] = None
                nxt.succeed()
        elif req in self.queue:
            self.queue.remove(req)


class Recorder:
    """Every hook call, as the observers are told them."""

    def __init__(self):
        self.calls = []

    def note_schedule(self, seq, delay):
        self.calls.append(("schedule", seq, delay))

    def begin_event(self, time, priority, seq, label):
        self.calls.append(("begin", time, priority, seq, label))

    def end_event(self, n_callbacks):
        self.calls.append(("end", n_callbacks))


# Holds: -1 releases at once (no yield in the block), 0 is ``yield 0``,
# and n > 0 holds n/2.
OPS = st.one_of(
    st.tuples(st.just("grab"), st.integers(0, 2), st.integers(-1, 4)),
    st.tuples(st.just("grab2"), st.integers(0, 2), st.integers(-1, 4)),
    st.tuples(st.just("sleep"), st.integers(0, 4), st.just(0)),
    st.tuples(st.just("interrupt"), st.integers(0, 7), st.just(0)),
)


@st.composite
def programs(draw):
    """Resource capacities, actors of random ops, and the stop times of
    a chunked run.  Times sit on a half-unit grid so that events tie."""
    capacities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = draw(st.integers(1, 7))
    actors = [draw(st.lists(OPS, max_size=8)) for _ in range(n)]
    stops = draw(st.lists(st.integers(1, 20), max_size=3, unique=True))
    return capacities, actors, sorted(s / 2 for s in stops)


def run_program(capacities, actors, stops, bare):
    """One run; ``bare`` takes every slot with ``with (yield res):``,
    otherwise with the reference's request events.  Returns everything
    an observer or the program itself could tell apart."""
    env = Environment()
    trace, recorder = EventTrace(), Recorder()
    profiler, sanitizer = SimProfiler(), RaceSanitizer()
    for observer in (trace, recorder, profiler, sanitizer):
        env.observe(observer)
    make = Resource if bare else RequestResource
    resources = [make(env, c) for c in capacities]
    log = []
    procs = []
    started = [False] * len(actors)
    pending = [0] * len(actors)

    def check_queues():
        # A waiter queues only while every slot is held.
        for res in resources:
            assert res.queued == 0 or res.count == res.capacity

    def body(me, k, hold):
        env.note_access(f"res{k}", "w")
        log.append(("granted", me, k, env.now))
        check_queues()
        if hold >= 0:
            yield hold / 2

    def take(me, k, hold, inner=None):
        res = resources[k]
        with ((yield res) if bare else res.request()) as slot:
            if not bare:
                yield slot
            yield from body(me, k, hold)
            if inner is not None:
                yield from take(me, inner, hold)
        log.append(("released", me, k, env.now))
        check_queues()

    def actor(me, ops):
        started[me] = True
        for op, arg, hold in ops:
            try:
                if op == "grab":
                    yield from take(me, arg % len(resources), hold)
                elif op == "grab2":
                    k = arg % len(resources)
                    yield from take(me, k, hold, inner=(k + 1) % len(resources))
                elif op == "sleep":
                    yield arg / 2
                elif op == "interrupt":
                    victim = arg % len(actors)
                    if (
                        victim != me
                        and started[victim]
                        and procs[victim].is_alive
                        and not pending[victim]
                    ):
                        pending[victim] += 1
                        procs[victim].interrupt(me)
            except Interrupt as stop:
                pending[me] -= 1
                log.append(("interrupted", me, stop.cause, env.now))
                check_queues()
                # Take the slot again; that wait may be interrupted too.
                try:
                    yield from take(me, arg % len(resources), 1)
                except Interrupt as again:
                    pending[me] -= 1
                    log.append(("interrupted", me, again.cause, env.now))
        log.append(("done", me, env.now))

    for me, ops in enumerate(actors):
        procs.append(env.process(actor(me, ops)))
    for stop in stops:
        if stop > env.now:
            env.run(until=stop)
            assert env.now == stop
            log.append(("stopped", stop, env.peek()))
    env.run()
    assert env.peek() == math.inf
    sanitizer.finish()
    # A process stuck on a slot it holds itself is closed when it is
    # collected, after the run; its exit must not reach the observers.
    for observer in (trace, recorder, profiler, sanitizer):
        env.unobserve(observer)
    return (
        log,
        (trace.count, trace.fingerprint),
        recorder.calls,
        profiler.as_dict(),
        sanitizer.reports,
        [(res.count, res.queued) for res in resources],
    )


# Hand-picked programs, so that each interrupt rule is exercised on
# every run and not only when the search finds it.  Actor 0 holds the
# one slot until t=1, when its release grants actor 1 and, in the same
# step, interrupts it: the grant is still pending.
PENDING_GRANT = ([1], [[("grab", 0, 2), ("interrupt", 1, 0)], [("grab", 0, 1)], [("grab", 0, 1)]], [])
# Actor 2 interrupts actor 1 while it is still queued behind actor 0.
QUEUED = ([1], [[("grab", 0, 4)], [("grab", 0, 1)], [("sleep", 1, 0), ("interrupt", 1, 0)]], [0.5])
# Actor 1 is interrupted while it holds the slot, inside the block.
HOLDER = ([2], [[("grab", 0, 4)], [("sleep", 1, 0), ("interrupt", 0, 0)], [("grab", 0, 0)]], [])
# One step releases two slots (a nested hold), granting two waiters;
# zero-length holds and a chunked run.
NESTED = ([1, 1], [[("grab2", 0, 2)], [("grab", 0, -1)], [("grab", 1, 0)]], [0.5, 1.0])


@settings(max_examples=150, deadline=None)
@given(programs())
@example(PENDING_GRANT)
@example(QUEUED)
@example(HOLDER)
@example(NESTED)
def test_a_yielded_resource_gives_the_request_events_stream(program):
    capacities, actors, stops = program
    assert run_program(capacities, actors, stops, bare=True) == run_program(
        capacities, actors, stops, bare=False
    )


def test_an_interrupted_pending_grant_is_stale_and_passes_the_slot_on():
    capacities, actors, stops = PENDING_GRANT
    log, _, calls, *_, final = run_program(capacities, actors, stops, bare=True)
    assert ("interrupted", 1, 0, 1.0) in log
    # Actor 1's re-take queues behind actor 2, which got the slot.
    granted = [entry[1:] for entry in log if entry[0] == "granted"]
    assert granted == [(0, 0, 0.0), (2, 0, 1.0), (1, 0, 1.5)]
    hooks = [call for call in calls if call[0] in ("begin", "end")]
    grants = [end for begin, end in zip(hooks[::2], hooks[1::2]) if begin[-1] == "Request"]
    # Four grants fire; actor 1's first is stale and resumes nobody.
    assert grants == [("end", 1), ("end", 0), ("end", 1), ("end", 1)]
    assert final == [(0, 0)]


def test_a_resource_of_another_environment_is_an_error():
    env, other = Environment(), Environment()
    res = Resource(other)

    def taker():
        with (yield res):
            pass

    proc = env.process(taker())
    with pytest.raises(SimulationError, match="Resource of a different Environment"):
        env.run()
    assert not proc.is_alive and res.count == 0 and res.queued == 0


def test_the_target_is_the_resource_while_the_process_waits_for_a_slot():
    env = Environment()
    res = Resource(env)
    seen = []

    def holder():
        with (yield res):
            seen.append(("holding", proc_a.target))
            yield 2

    def waiter():
        with (yield res):
            seen.append(("holding", proc_b.target))

    proc_a = env.process(holder())
    proc_b = env.process(waiter())
    env.run(until=1)
    assert proc_b.target is res and res.queued == 1
    while res.queued:
        env.step()
    # The holder's release at t=2 granted b; the grant has not fired.
    assert proc_b.target is res and res.count == 1 and env.now == 2
    env.run()
    assert seen == [("holding", None), ("holding", None)]
    assert res.count == 0


def test_a_process_resumes_with_the_resource_itself():
    env = Environment()
    res = Resource(env, capacity=2)
    got = []

    def taker():
        slot = yield res
        got.append(slot)
        with slot:
            yield 1

    env.process(taker())
    env.run()
    assert got == [res] and res.count == 0


def test_with_res_without_the_yield_fails_loudly():
    # ``with res:`` holds no slot, yet its exit used to free one: user 1
    # was granted at t=1 while user 0 held the one slot until t=2, and
    # ``count`` ended at -1.
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(me, start, hold):
        yield start
        with (yield res):
            log.append(("granted", me, env.now))
            yield hold
        log.append(("released", me, env.now))

    def forgets_the_yield():
        yield 1
        with res:
            log.append(("bare", env.now))

    env.process(user(0, 0, 2))
    env.process(user(1, 0.5, 1))
    env.process(forgets_the_yield())
    with pytest.raises(SimulationError, match="release of a Resource slot that is not held"):
        env.run()
    assert res.count == 0
    assert log[:2] == [("granted", 0, 0), ("bare", 1)]


def test_with_res_on_a_free_resource_holds_nothing():
    env = Environment()
    res = Resource(env, capacity=2)

    def forgets_the_yield():
        with res:
            yield 1

    env.process(forgets_the_yield())
    with pytest.raises(SimulationError, match=r"no slot held: write 'with \(yield res\):'"):
        env.run()
    assert res.count == 0 and res.queued == 0
