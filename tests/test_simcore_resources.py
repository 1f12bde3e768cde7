"""Unit tests for Resource / PriorityResource."""

import numpy as np
import pytest

from repro.simcore import (
    Environment,
    Interrupt,
    PriorityResource,
    Resource,
    SimulationError,
)


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def user(i):
        with (yield res):
            grants.append((env.now, i))
            yield env.timeout(10)

    for i in range(3):
        env.process(user(i))
    env.run()
    # Two immediately, third at t=10 when one releases.
    assert grants == [(0.0, 0), (0.0, 1), (10.0, 2)]


def test_resource_fifo_queueing():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(i):
        with (yield res):
            order.append(i)
            yield env.timeout(1)

    for i in range(5):
        env.process(user(i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_count_and_queued():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with (yield res):
            yield env.timeout(5)

    def waiter():
        with (yield res):
            pass

    env.process(holder())
    env.process(waiter())
    env.run(until=1)
    assert res.count == 1
    assert res.queued == 1
    env.run()
    assert res.count == 0


def test_leaving_the_block_releases_to_the_next_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def a():
        with (yield res):
            yield 2
        log.append(("a-released", env.now, res.count, res.queued))
        yield 10

    def b():
        yield 1
        with (yield res):
            log.append(("b-granted", env.now))

    env.process(a())
    env.process(b())
    env.run()
    # The slot passes straight to b: still one holder, nobody queued.
    assert log == [("a-released", 2.0, 1, 0), ("b-granted", 2.0)]
    assert res.count == 0


def test_an_interrupted_waiter_is_withdrawn_from_the_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder():
        with (yield res):
            yield 10

    def impatient():
        try:
            with (yield res):
                log.append("granted")
        except Interrupt:
            log.append(("gave up", env.now))

    def interrupter(victim):
        yield 1
        assert victim.target is res and res.queued == 1
        victim.interrupt()

    env.process(holder())
    env.process(interrupter(env.process(impatient())))
    env.run(until=2)
    assert log == [("gave up", 1.0)]
    assert res.queued == 0 and res.count == 1
    env.run()
    # The holder's release found nobody to grant.
    assert log == [("gave up", 1.0)] and res.count == 0


@pytest.mark.parametrize("make", [Resource, PriorityResource])
@pytest.mark.parametrize(
    "capacity",
    [0, -1, 0.5, 1.5, float("nan"), float("inf"), True, False, "2", None],
    ids=repr,
)
def test_a_capacity_that_is_not_a_whole_number_of_slots_is_rejected(make, capacity):
    with pytest.raises(SimulationError, match="capacity must be a whole number >= 1"):
        make(Environment(), capacity)


@pytest.mark.parametrize("capacity", [1, 3, 2.0, np.int64(4)], ids=repr)
def test_a_whole_number_capacity_is_an_int(capacity):
    res = Resource(Environment(), capacity)
    assert res.capacity == capacity and type(res.capacity) is int


def test_priority_resource_orders_waiters():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder():
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(5)

    def user(i, prio):
        yield env.timeout(1)  # arrive while holder active
        with res.request(priority=prio) as req:
            yield req
            order.append(i)
            yield env.timeout(1)

    env.process(holder())
    env.process(user("low", 10))
    env.process(user("high", -1))
    env.process(user("mid", 3))
    env.run()
    assert order == ["high", "mid", "low"]


def test_priority_ties_fifo():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder():
        with res.request(priority=0) as r:
            yield r
            yield env.timeout(2)

    def user(i):
        yield env.timeout(1)
        with res.request(priority=5) as r:
            yield r
            order.append(i)

    env.process(holder())
    for i in range(4):
        env.process(user(i))
    env.run()
    assert order == [0, 1, 2, 3]
