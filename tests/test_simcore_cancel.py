"""Cancelled timeouts: they never fire, never reach an observer, and
never stand at the head of the event queue.

A cancelled entry leaves the heap lazily, but the head is always live,
so ``peek()``, ``run(until=t)``, ``run(until=event)`` and a drain run
read the time of an event that will really fire.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Environment, EventTrace, SimulationError


class RecordingObserver:
    """Stands in for the profiler and the sanitizer: keeps the seq of
    every event it is told about."""

    def __init__(self):
        self.begun = []

    def note_schedule(self, seq, delay):
        pass

    def begin_event(self, now, priority, seq, label):
        self.begun.append(seq)

    def end_event(self, n_callbacks=0):
        pass


def live_head_time(env):
    live = [entry[0] for entry in env._queue if entry[3].callbacks is not None]
    return min(live) if live else float("inf")


@st.composite
def schedules(draw):
    """Timeouts on a coarse grid (so times tie), a subset of them
    cancelled, each from driver code before the run or by a canceller
    process at some time, and the stop times of a chunked run."""
    n = draw(st.integers(min_value=1, max_value=150))
    delays = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    cancels = draw(st.lists(
        st.one_of(st.none(), st.integers(-1, 20)), min_size=n, max_size=n,
    ))
    stops = draw(st.lists(st.integers(1, 22), max_size=4, unique=True))
    return [d / 2 for d in delays], cancels, sorted(s / 2 for s in stops)


def run_schedule(delays, cancels, stops, cancel):
    """One run; ``cancel=False`` is the reference run, which starts the
    same canceller processes but has them cancel nothing."""
    env = Environment()
    trace = EventTrace(keep_all=True)
    profiler, sanitizer = RecordingObserver(), RecordingObserver()
    env.observe(trace)
    env.observe(profiler)
    env.observe(sanitizer)
    fired = []
    timeouts = [env.timeout(delay, value=i) for i, delay in enumerate(delays)]
    for t in timeouts:
        t.callbacks.append(lambda e: fired.append((env.now, e.value)))
    seq_of = {entry[3].value: entry[2] for entry in env._queue}
    cancelled = set()

    def drop(i):
        if cancel and not timeouts[i].processed:
            cancelled.add(seq_of[i])
            timeouts[i].cancel()

    def canceller(at, indices):
        yield env.timeout(at)
        for i in indices:
            drop(i)

    by_time = {}
    for i, at in enumerate(cancels):
        if at == -1:
            drop(i)
        elif at is not None:
            by_time.setdefault(at / 2, []).append(i)
    for at, indices in sorted(by_time.items()):
        env.process(canceller(at, indices))

    for stop in stops:
        if stop > env.now:
            env.run(until=stop)
            assert env.now == stop
        assert env.peek() == live_head_time(env)
        assert not env._queue or env._queue[0][3].callbacks is not None
    env.run()
    assert env.peek() == float("inf")
    stream = [(r.time, r.priority, r.seq, r.label) for r in trace.records]
    return stream, (profiler.begun, sanitizer.begun), fired, cancelled


@settings(max_examples=150, deadline=None)
@given(schedules())
def test_cancelled_timeouts_vanish_from_the_stream(schedule):
    delays, cancels, stops = schedule
    ref_stream, _, ref_fired, _ = run_schedule(delays, cancels, stops, False)
    stream, begun, fired, cancelled = run_schedule(delays, cancels, stops, True)
    # Exactly the reference stream minus the cancelled timeouts: every
    # other event keeps its time, priority, seq and label.
    assert stream == [rec for rec in ref_stream if rec[2] not in cancelled]
    # The profiler and the sanitizer see exactly the traced events.
    assert begun == ([rec[2] for rec in stream],) * 2
    assert len(fired) == len(ref_fired) - len(cancelled)


def test_cancelled_head_leaves_the_queue_at_once():
    env = Environment()
    first, second = env.timeout(1), env.timeout(3)
    first.cancel()
    assert first.processed
    assert env.peek() == 3
    assert [entry[3] for entry in env._queue] == [second]


def test_a_cancelled_entry_that_surfaces_is_dropped_by_the_step():
    env = Environment()
    env.timeout(1)
    env.timeout(2).cancel()
    env.timeout(3)
    assert len(env._queue) == 3  # lazy: not at the head yet
    env.step()
    assert env.now == 1
    assert env.peek() == 3
    assert len(env._queue) == 1


def test_run_until_time_does_not_pass_a_cancelled_head():
    env = Environment()
    fired = []
    env.timeout(1).callbacks.append(lambda e: fired.append(env.now))
    env.timeout(2).cancel()
    env.timeout(5).callbacks.append(lambda e: fired.append(env.now))
    env.run(until=3)
    assert env.now == 3
    assert fired == [1]
    env.run()
    assert fired == [1, 5]


def test_drain_run_ends_at_the_last_live_event():
    env = Environment()
    env.timeout(1)
    env.timeout(10).cancel()
    env.timeout(15).cancel()
    env.run()
    assert env.now == 1
    assert env._queue == []


def test_run_until_event_runs_dry_on_cancelled_entries():
    env = Environment()
    env.timeout(1)
    env.timeout(5).cancel()
    with pytest.raises(SimulationError, match="ran dry"):
        env.run(until=env.event())
    assert env.now == 1


def test_run_until_event_ignores_cancelled_entries_before_it():
    env = Environment()
    env.timeout(1).cancel()
    target = env.timeout(2, value="x")
    assert env.run(until=target) == "x"
    assert env.now == 2


def test_cancel_after_firing_and_twice_is_a_no_op():
    env = Environment()
    fired = env.timeout(1)
    later = env.timeout(2)
    env.run(until=1.5)
    fired.cancel()
    later.cancel()
    later.cancel()
    assert env._cancelled == 0
    assert env._queue == []


def test_heap_is_rebuilt_once_cancelled_entries_are_the_majority():
    env = Environment()
    timeouts = [env.timeout(1 + i) for i in range(100)]
    for t in timeouts[1:51]:
        t.cancel()
    # Half of the entries are cancelled: not yet a majority.
    assert len(env._queue) == 100 and env._cancelled == 50
    timeouts[51].cancel()
    assert len(env._queue) == 49 and env._cancelled == 0
    fired = []
    for t in timeouts:
        if t.callbacks is not None:
            t.callbacks.append(lambda e: fired.append(env.now))
    env.run()
    assert fired == [1.0] + [float(1 + i) for i in range(52, 100)]


def test_small_heaps_are_never_rebuilt():
    env = Environment()
    timeouts = [env.timeout(1 + i) for i in range(64)]
    for t in timeouts[1:]:
        t.cancel()
    assert len(env._queue) == 64 and env._cancelled == 63
    env.run()
    assert env.now == 1 and env._queue == [] and env._cancelled == 0
