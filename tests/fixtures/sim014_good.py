"""SIM013 yield-path fixture (clean): the same two-hop delegation
shape, but the producer sorts before yielding, so the order flowing
down the yield path is deterministic."""


def live():
    yield from sorted({"a", "b", "c"})


def relay():
    yield from live()


def drain(out):
    for name in relay():
        out.append(name)
