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
    AnyOf,
    Environment,
    EventTrace,
    Resource,
    Store,
)
from repro.simcore.engine import _PENDING, Event


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
            with (yield res):
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


class _Reference:
    """``AllOf``/``AnyOf`` as they were before the countdown: an id-set
    of fired sub-events, an evaluator called on every check, and a value
    dict filtered through the set.  The class names match the kernel's,
    so an ``EventTrace`` labels both the same."""

    class Condition(Event):
        def __init__(self, env, evaluate, events):
            super().__init__(env)
            self._events = list(events)
            self._evaluate = evaluate
            self._count = 0
            self._fired = set()
            if not self._events:
                self.succeed({})
                return
            for evt in self._events:
                if evt.callbacks is None:
                    self._check(evt)
                else:
                    evt.callbacks.append(self._check)

        def _check(self, event):
            if self._value is not _PENDING:
                if not event._ok:
                    event._defused = True
                return
            self._count += 1
            self._fired.add(id(event))
            if not event._ok:
                event._defused = True
                self.fail(event._value)
            elif self._evaluate(self._events, self._count):
                self.succeed({
                    evt: evt._value for evt in self._events
                    if id(evt) in self._fired and evt._ok
                })
            if self._value is not _PENDING:
                for evt in self._events:
                    if evt._value is _PENDING:
                        withdraw = getattr(evt, "_withdraw", None)
                        if withdraw is not None:
                            withdraw()

    class AllOf(Condition):
        def __init__(self, env, events):
            super().__init__(env, lambda evs, n: n >= len(evs), events)

    class AnyOf(Condition):
        def __init__(self, env, events):
            super().__init__(env, lambda evs, n: n >= 1, events)


_SUB_KINDS = ["timeout", "processed", "fail", "failed_processed", "get", "repeat"]
_DELAYS = [0.0, 0.5, 1.0, 2.0]


@st.composite
def condition_case(draw):
    """Sub-events of one condition, the store's puts, and its kind.
    Delays come from a small set so that sub-events tie."""
    subs = [
        (draw(st.sampled_from(_SUB_KINDS[:-1] if i == 0 else _SUB_KINDS)),
         draw(st.sampled_from(_DELAYS)),
         draw(st.integers(min_value=0, max_value=i - 1)) if i else 0)
        for i in range(draw(st.integers(min_value=0, max_value=6)))
    ]
    puts = draw(st.lists(st.sampled_from(_DELAYS + [1.5, 3.0]), max_size=4))
    return subs, puts, draw(st.booleans())


def run_condition(case, all_of, any_of):
    """Resolve one condition; return what a waiter and the store saw."""
    subs_spec, puts, use_any = case
    env = Environment()
    trace = EventTrace()
    env.observe(trace)
    store = Store(env)
    log = []
    subs = []
    gets = []
    for kind, delay, _ in subs_spec:
        if kind == "processed":
            subs.append(env.event().succeed(("p", delay)))
        elif kind == "failed_processed":
            subs.append(env.event().fail(ValueError(f"early {delay}")).defused())
        else:
            subs.append(None)
    env.run()  # process the already-fired sub-events

    def fail_at(evt, delay):
        yield env.timeout(delay)
        evt.fail(ValueError(f"late {delay}"))

    def put_at(k, delay):
        yield env.timeout(delay)
        store.put(("item", k))

    for i, (kind, delay, j) in enumerate(subs_spec):
        if kind == "timeout":
            subs[i] = env.timeout(delay, ("t", delay))
        elif kind == "fail":
            subs[i] = env.event()
            env.process(fail_at(subs[i], delay))
        elif kind == "get":
            subs[i] = store.get()
            gets.append(subs[i])
        elif kind == "repeat":
            subs[i] = subs[j]
    for k, delay in enumerate(puts):
        env.process(put_at(k, delay))

    def waiter():
        try:
            value = yield (any_of if use_any else all_of)(env, subs)
        except ValueError as err:
            log.append((env.now, "fail", str(err)))
        else:
            log.append((env.now, "ok",
                        [(subs.index(evt), v) for evt, v in value.items()]))

    env.process(waiter())
    env.run()
    gets_seen = [g.value if g.triggered else "pending" for g in gets]
    return (log, gets_seen, list(store.items), len(store._gets),
            trace.count, trace.fingerprint)


@given(condition_case())
@settings(max_examples=200, deadline=None)
def test_property_condition_matches_fired_set_reference(case):
    """The countdown conditions resolve at the same instant, with the
    same value dict (keys and order), the same failure and the same
    withdrawn gets as the fired-set reference, through the same event
    stream.  Covers pending, already-processed, failing and repeated
    sub-events and ``store.get()`` waiters."""
    assert run_condition(case, AllOf, AnyOf) == run_condition(
        case, _Reference.AllOf, _Reference.AnyOf
    )
