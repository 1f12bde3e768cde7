"""SIM013 fixture: unordered-container taint through the yield path.

``live()`` drains a set with ``yield from``; ``relay()`` delegates to
it with another ``yield from``, so ``drain()``'s loop replays in hash
order even though no set expression appears anywhere near the loop —
only the producer taint pass (SIM013) can follow the container down
two delegation hops to the iteration site.
"""


def live():
    yield from {"a", "b", "c"}


def relay():
    yield from live()


def drain(out):
    for name in relay():
        out.append(name)
