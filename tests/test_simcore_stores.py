"""Unit tests for Store."""

import pytest

from repro.simcore import Environment, Store, StoreFull


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [(0.0, 0), (1.0, 1), (2.0, 2)]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(7)
        yield store.put("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(7.0, "x")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("a", env.now))
        yield store.put("b")
        log.append(("b", env.now))

    def consumer():
        yield env.timeout(4)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [("a", 0.0), ("b", 4.0)]


def test_put_nowait_raises_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    store.put_nowait("a")
    with pytest.raises(StoreFull):
        store.put_nowait("b")


def test_multiple_consumers_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(i):
        item = yield store.get()
        got.append((i, item))

    for i in range(3):
        env.process(consumer(i))

    def producer():
        for v in "xyz":
            yield store.put(v)

    env.process(producer())
    env.run()
    assert got == [(0, "x"), (1, "y"), (2, "z")]


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put_nowait(1)
    store.put_nowait(2)
    assert len(store) == 2


def test_get_losing_race_does_not_swallow_item():
    """A ``get | timeout`` where the timeout wins must withdraw the get:
    the next put goes to a live consumer, not the abandoned event."""
    from repro.simcore import AnyOf

    env = Environment()
    store = Store(env)
    got = []

    def impatient():
        result = yield store.get() | env.timeout(1.0, value="gave-up")
        got.append(("impatient", sorted(map(str, result.values()))))

    def patient():
        yield env.timeout(2.0)
        item = yield store.get()
        got.append(("patient", item))

    def producer():
        yield env.timeout(3.0)
        yield store.put("the-item")

    env.process(impatient())
    env.process(patient())
    env.process(producer())
    env.run()
    assert ("patient", "the-item") in got
    assert got[0] == ("impatient", ["gave-up"])


def test_put_losing_race_withdraws_from_full_store():
    from repro.simcore import AnyOf

    env = Environment()
    store = Store(env, capacity=1)
    store.put_nowait("occupant")
    outcomes = []

    def impatient_producer():
        result = yield store.put("late") | env.timeout(1.0, value="quit")
        outcomes.append(sorted(map(str, result.values())))

    def consumer():
        yield env.timeout(2.0)
        item = yield store.get()
        outcomes.append(item)
        # The withdrawn put must NOT sneak in afterwards.
        yield env.timeout(1.0)
        outcomes.append(list(store.items))

    env.process(impatient_producer())
    env.process(consumer())
    env.run()
    assert outcomes == [["quit"], "occupant", []]
