"""A process sleeps by yielding its delay: ``yield d`` is
``yield env.timeout(d)`` without the :class:`Timeout` object.

The wake is pushed onto the heap with the seq the timeout would have
drawn and fires as that timeout would: label ``Timeout``, one callback,
or none once an interrupt has made it stale.  So every observer sees the
same stream with either spelling (docs/INTERNALS.md §1, "Scheduling
sites").  :func:`test_both_spellings_give_one_stream` runs random sleep
programs both ways; ``tests/test_simcore_properties.py`` mixes them
with every other kernel feature.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.simcore import Environment, Interrupt, SimulationError

from .kernel_harness import Recorder, assert_one_run, only, programs


@settings(max_examples=50, deadline=None)
@given(programs(only("sleep", "interrupt", "cancel", "spawn", "join", "write")))
def test_both_spellings_give_one_stream(program):
    """``yield d`` and ``yield env.timeout(d)``, with ties, interrupts,
    heap rebuilds and chunked runs, give one run."""
    assert_one_run(program)


def test_a_stale_wake_of_a_finished_process_survives_a_rebuild():
    """A finished process's ``callbacks`` is None, as a cancelled
    timeout's is; its stale wake must still fire, and the heap rebuild
    that many cancellations trigger must not count it as cancelled."""
    env = Environment()
    recorder = Recorder(env)
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
