"""Unit tests for Store."""

from repro.simcore import Environment, Store


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
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_get_losing_race_does_not_swallow_item():
    """A ``get | timeout`` where the timeout wins must withdraw the get:
    the next put goes to a live consumer, not the abandoned event."""
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
