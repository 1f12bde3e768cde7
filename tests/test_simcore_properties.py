"""Property-based stress tests for the simulation kernel.

Hypothesis drives randomized workloads through the engine and checks
global invariants: determinism, causality (time never goes backwards),
resource conservation, and store item conservation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import (
    AllOf,
    Environment,
    Resource,
    Store,
)


@st.composite
def workload(draw):
    """A random mix of processes: delays, resource usage, store traffic."""
    n_procs = draw(st.integers(min_value=1, max_value=12))
    specs = []
    for _ in range(n_procs):
        specs.append({
            "kind": draw(st.sampled_from(["sleeper", "user", "producer", "consumer"])),
            "steps": draw(st.integers(min_value=1, max_value=5)),
            "delay": draw(st.floats(min_value=0.0, max_value=3.0,
                                    allow_nan=False, allow_infinity=False)),
        })
    capacity = draw(st.integers(min_value=1, max_value=4))
    return specs, capacity


def run_workload(specs, capacity):
    env = Environment()
    res = Resource(env, capacity=capacity)
    store = Store(env)
    trace = []
    produced = []
    consumed = []

    def sleeper(i, spec):
        for k in range(spec["steps"]):
            yield env.timeout(spec["delay"])
            trace.append(("sleep", i, k, env.now))

    def user(i, spec):
        for k in range(spec["steps"]):
            with res.request() as req:
                yield req
                assert res.count <= res.capacity  # invariant
                yield env.timeout(spec["delay"])
            trace.append(("used", i, k, env.now))

    def producer(i, spec):
        for k in range(spec["steps"]):
            yield env.timeout(spec["delay"])
            item = (i, k)
            produced.append(item)
            yield store.put(item)

    def consumer(i, spec):
        for k in range(spec["steps"]):
            item = yield store.get() | env.timeout(10.0)
            got = list(item.values())[0]
            if got is not None and isinstance(got, tuple):
                consumed.append(got)
            trace.append(("consumed", i, k, env.now))

    makers = {"sleeper": sleeper, "user": user,
              "producer": producer, "consumer": consumer}
    for i, spec in enumerate(specs):
        env.process(makers[spec["kind"]](i, spec))
    env.run(until=1000)
    return trace, produced, consumed, store


@given(workload())
@settings(max_examples=60, deadline=None)
def test_property_determinism(wl):
    """Identical inputs produce identical traces."""
    specs, capacity = wl
    t1 = run_workload(specs, capacity)[0]
    t2 = run_workload(specs, capacity)[0]
    assert t1 == t2


@given(workload())
@settings(max_examples=60, deadline=None)
def test_property_causality_and_conservation(wl):
    """Timestamps are monotonic per process; no store item is lost or
    duplicated; the resource never exceeds capacity (asserted inline)."""
    specs, capacity = wl
    trace, produced, consumed, store = run_workload(specs, capacity)
    # global trace time is non-decreasing (events appended in fire order)
    times = [t for *_, t in trace]
    assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))
    # consumed ⊆ produced, no duplicates, leftovers still in the store
    assert len(set(consumed)) == len(consumed)
    assert set(consumed) <= set(produced)
    leftovers = [x for x in store.items if isinstance(x, tuple)]
    assert set(consumed) | set(leftovers) == set(produced)


@given(
    n=st.integers(min_value=1, max_value=40),
    delays=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=40),
)
@settings(max_examples=40, deadline=None)
def test_property_allof_fires_at_max(n, delays):
    """AllOf triggers exactly at the latest sub-event."""
    env = Environment()
    delays = delays[:n] or [1.0]

    def proc():
        events = [env.timeout(d) for d in delays]
        yield AllOf(env, events)
        return env.now

    assert env.run(env.process(proc())) == max(delays)
