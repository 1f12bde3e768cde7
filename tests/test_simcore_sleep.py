"""A process sleeps by yielding its delay: ``yield d`` is
``yield env.timeout(d)`` without the :class:`Timeout` object.

The wake is pushed onto the heap with the seq the timeout would have
drawn and fires as that timeout would: label ``Timeout``, one callback,
or none once an interrupt has made it stale.  So every observer sees the
same stream with either spelling (docs/INTERNALS.md §1, "Scheduling
sites").
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.races import RaceSanitizer
from repro.simcore import (
    Environment,
    EventTrace,
    Interrupt,
    SimProfiler,
    SimulationError,
)


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


OPS = st.one_of(
    st.tuples(st.just("sleep"), st.integers(0, 6)),
    st.tuples(st.just("sleep_float"), st.integers(0, 6)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("cancel_many"), st.integers(40, 90)),
    st.tuples(st.just("event"), st.integers(0, 7)),
)


@st.composite
def programs(draw):
    """Actors of random ops, and the stop times of a chunked run.
    Delays sit on a half-unit grid so that wakes tie."""
    n = draw(st.integers(1, 8))
    actors = [draw(st.lists(OPS, max_size=10)) for _ in range(n)]
    stops = draw(st.lists(st.integers(1, 30), max_size=3, unique=True))
    return actors, sorted(s / 2 for s in stops)


def run_program(actors, stops, bare):
    """One run; ``bare`` spells every sleep ``yield d``, otherwise
    ``yield env.timeout(d)``.  Returns everything an observer or the
    program itself could tell apart."""
    env = Environment()
    trace, recorder = EventTrace(), Recorder()
    profiler, sanitizer = SimProfiler(), RaceSanitizer()
    for observer in (trace, recorder, profiler, sanitizer):
        env.observe(observer)
    log = []
    procs = []
    asleep = [False] * len(actors)
    pending = [0] * len(actors)
    gates = [env.event() for _ in actors]

    def wait(d):
        return d if bare else env.timeout(d)

    def sleep(me, d):
        asleep[me] = True
        try:
            yield wait(d)
        finally:
            asleep[me] = False
        env.note_access("cell", "w")
        log.append(("woke", me, env.now))

    def actor(me, ops):
        for op, arg in ops:
            try:
                if op == "sleep":
                    yield from sleep(me, arg // 2)
                elif op == "sleep_float":
                    yield from sleep(me, arg / 2)
                elif op == "interrupt":
                    victim = arg % len(actors)
                    if victim != me and asleep[victim] and not pending[victim]:
                        pending[victim] += 1
                        procs[victim].interrupt(me)
                elif op == "cancel_many":
                    timers = [env.timeout(i % 7 / 2) for i in range(arg)]
                    for timer in timers:
                        timer.cancel()
                elif op == "event":
                    gate = gates[arg % len(gates)]
                    if not gate.triggered:
                        gate.succeed(me)
            except Interrupt as stop:
                pending[me] -= 1
                log.append(("interrupted", me, stop.cause, env.now))
                # A new sleep after the interrupt, while the old wake is
                # stale; it may be interrupted in turn.
                try:
                    yield from sleep(me, 1)
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
    return (
        log,
        (trace.count, trace.fingerprint),
        recorder.calls,
        profiler.as_dict(),
        sanitizer.reports,
    )


@settings(max_examples=120, deadline=None)
@given(programs())
def test_both_spellings_give_one_stream(program):
    actors, stops = program
    assert run_program(actors, stops, bare=True) == run_program(
        actors, stops, bare=False
    )


def test_a_stale_wake_of_a_finished_process_survives_a_rebuild():
    """A finished process's ``callbacks`` is None, as a cancelled
    timeout's is; its stale wake must still fire, and the heap rebuild
    that many cancellations trigger must not count it as cancelled."""
    env = Environment()
    recorder = Recorder()
    env.observe(recorder)

    def sleeper():
        try:
            yield 10
        except Interrupt:
            pass

    def actor(victim):
        yield 1
        victim.interrupt()
        yield 1
        assert victim.processed
        for timer in [env.timeout(5) for _ in range(80)]:
            timer.cancel()
        assert env._cancelled == 0  # rebuilt
        assert len(env._queue) == 1  # the stale wake at t=10

    victim = env.process(sleeper())
    env.process(actor(victim))
    env.run()
    assert env.now == 10
    begun = [call for call in recorder.calls if call[0] in ("begin", "end")]
    assert begun[-2:] == [("begin", 10, 1, begun[-2][3], "Timeout"), ("end", 0)]


def test_a_sleeper_has_no_target():
    env = Environment()

    def sleeper():
        yield 1.5

    proc = env.process(sleeper())
    env.step()  # Initialize: the process runs to its sleep
    assert proc.is_alive and proc.target is None
    assert env.peek() == 1.5
    env.run()
    assert not proc.is_alive and env.now == 1.5


@pytest.mark.parametrize("bare", [True, False], ids=["yield-d", "timeout"])
@pytest.mark.parametrize(
    "delay", [0, 0.0, 3, 2.5, np.float64(0.75), np.float32(0.5)],
    ids=repr,
)
def test_a_delay_sleeps(bare, delay):
    env = Environment()
    woke = []

    def sleeper():
        got = yield (delay if bare else env.timeout(delay))
        woke.append((env.now, got))

    env.process(sleeper())
    env.run()
    assert woke == [(delay, None)]


@pytest.mark.parametrize("bare", [True, False], ids=["yield-d", "timeout"])
def test_an_infinite_delay_never_wakes(bare):
    env = Environment()

    def sleeper():
        yield (math.inf if bare else env.timeout(math.inf))

    proc = env.process(sleeper())
    env.run()
    assert proc.is_alive and env.peek() == math.inf


@pytest.mark.parametrize(
    "delay, message",
    [
        (-1, "Negative delay -1"),
        (-0.5, "Negative delay -0.5"),
        (float("nan"), "Delay nan is not a number"),
        (True, "Delay True is not a number"),
        ("1", "Delay '1' is not a number"),
        (None, "Delay None is not a number"),
    ],
    ids=repr,
)
def test_a_bad_delay_is_an_error_in_both_spellings(delay, message):
    env = Environment()
    with pytest.raises(SimulationError, match=message):
        env.timeout(delay)

    def sleeper():
        yield delay

    env.process(sleeper(), name="napper")
    with pytest.raises(SimulationError, match=f"Process 'napper' yielded .*{message}"):
        env.run()
