"""A process takes a resource slot by yielding the resource:
``with (yield res):`` is ``with res.request() as req: yield req``
without the request event.

The grant is the lane entry ``(seq, process)``, taken at the moment the
request event would have drawn its seq, and it fires as that event
would: label ``Request``, one callback, or none once an interrupt has
made it stale.  An interrupted waiter leaves the resource before the
throw, where the request's ``__exit__`` used to run.  So every observer
sees the same stream either way (docs/INTERNALS.md §1, "Resources and
stores").  :func:`test_a_yielded_resource_gives_the_request_events_stream`
runs random grant programs both ways, against the request-event
resource the kernel used to have (``tests/kernel_reference.py``);
``tests/test_simcore_properties.py`` mixes them with every other kernel
feature.
"""

import pytest
from hypothesis import example, given, settings

from repro.simcore import Environment, Resource, SimulationError

from .kernel_harness import (
    HOLDER,
    NESTED_GRANTS,
    PENDING_GRANT,
    QUEUED,
    assert_one_run,
    fired,
    only,
    programs,
    run_program,
)


@settings(max_examples=50, deadline=None)
@given(programs(only("grab", "grab2", "sleep", "interrupt", "write")))
@example(PENDING_GRANT)
@example(QUEUED)
@example(HOLDER)
@example(NESTED_GRANTS)
def test_a_yielded_resource_gives_the_request_events_stream(program):
    """``with (yield res):`` and ``with res.request() as req: yield req``
    give one run, for waiters queued, granted, holding and interrupted."""
    assert_one_run(program)


def test_an_interrupted_pending_grant_is_stale_and_passes_the_slot_on():
    run = run_program(PENDING_GRANT)
    # The slot actor 1 was granted passed on before the throw.
    assert (1.0, "interrupted", 1, 0, [(1, 0)]) in run.log
    # Actor 1's re-take queues behind actor 2, which got the slot.
    granted = [entry for entry in run.log if entry[1] == "granted"]
    assert granted == [(0.0, "granted", 0, 0), (1.0, "granted", 2, 0), (1.5, "granted", 1, 0)]
    grants = [event[-1] for event in fired(run.calls) if event[3] == "Request"]
    # Four grants fire; actor 1's first is stale and resumes nobody.
    assert grants == [1, 0, 1, 1]
    assert run.resources == [(0, 0)]


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
