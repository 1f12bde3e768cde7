"""Cancelled timeouts: they never fire, never reach an observer, and
never stand at the head of the event queue.

A cancelled entry leaves the heap lazily, but the head is always live,
so ``peek()``, ``run(until=t)``, ``run(until=event)`` and a drain run
read the time of an event that will really fire.
"""

import pytest
from hypothesis import given, settings

from repro.simcore import Environment, SimulationError

from .kernel_harness import fired, programs, run_program


@settings(max_examples=150, deadline=None)
@given(programs())
def test_cancelled_timeouts_vanish_from_the_stream(program):
    # The same program, once with every timer it cancels kept; every
    # run also checks that the head is live whenever a chunk stops.
    kept, cut = [run_program(program, cancel=cancel) for cancel in (False, True)]
    cancelled = set(cut.cancelled)
    stream = fired(cut.calls)
    # Exactly the stream with the timers kept minus the cancelled ones:
    # every other event keeps its time, priority, seq, label and
    # callback count.
    assert stream == [event for event in fired(kept.calls) if event[2] not in cancelled]
    # The trace and the profiler see exactly these events.
    assert cut.trace[0] == cut.profile["total_events"] == len(stream)


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
