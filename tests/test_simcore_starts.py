"""A process starts from its own urgent-lane entry: the constructor
queues ``(seq, process)`` where it used to build an ``Initialize`` event.

The entry takes the seq the event would have drawn, at the same point
in the constructor, and fires as that event would: label
``Initialize``, priority URGENT, one callback.  A start is never stale:
an interrupt requested before it queues behind it on the same lane.  So
every observer sees the same stream either way (docs/INTERNALS.md §1,
"Processes").  :class:`Initialize` and :func:`initialize_init` below
are the event-based constructor the kernel used to have, kept here as
the reference.
"""

import math
from contextlib import contextmanager

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.races import RaceSanitizer
from repro.simcore import (
    Environment,
    Event,
    EventTrace,
    Interrupt,
    Resource,
    SimProfiler,
    SimulationError,
)
from repro.simcore.engine import _PENDING, URGENT, Process


class Initialize(Event):
    """The start event; its class name is the label a start keeps."""

    __slots__ = ()

    def __init__(self, env, process):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        seq = next(env._seq)
        env._urgent.append((seq, self))
        if env._schedules:
            env._note_schedule(seq, 0.0)


def initialize_init(self, env, generator, name=""):
    """The reference ``Process.__init__``: it starts the process with an
    :class:`Initialize` event."""
    if not hasattr(generator, "throw"):
        raise SimulationError(f"{generator!r} is not a generator")
    self.env = env
    self.callbacks = []
    self._value = _PENDING
    self._ok = True
    self._defused = False
    self._generator = generator
    self.name = name or getattr(generator, "__name__", "process")
    self._target = None
    self._wake = None
    Initialize(env, self)


@contextmanager
def initialize_starts():
    """Build every process with the reference constructor meanwhile."""
    own = Process.__init__
    Process.__init__ = initialize_init
    try:
        yield
    finally:
        Process.__init__ = own


class Recorder:
    """Every hook call, as the observers are told them."""

    def __init__(self):
        self.calls = []

    def note_schedule(self, seq, delay):
        self.calls.append(("schedule", seq, delay))

    def begin_event(self, time, priority, seq, label):
        self.calls.append(("begin", time, priority, seq, label))

    def end_event(self, n_callbacks):
        self.calls.append(("end", n_callbacks))


# ``spawn``, ``join`` and ``poke`` start a child from the pool entry
# ``arg``; a poked child is interrupted before its start.  ``early``
# starts a child that returns before its first yield, ``twins`` two in
# one step.  Delays are on a half-unit grid so that starts, exits and
# wakes tie.
OPS = st.one_of(
    st.tuples(st.just("spawn"), st.integers(0, 2)),
    st.tuples(st.just("join"), st.integers(0, 2)),
    st.tuples(st.just("poke"), st.integers(0, 2)),
    st.tuples(st.just("early"), st.integers(0, 2)),
    st.tuples(st.just("twins"), st.integers(0, 2)),
    st.tuples(st.just("sleep"), st.integers(0, 3)),
    st.tuples(st.just("succeed"), st.integers(0, 2)),
    st.tuples(st.just("hold"), st.integers(0, 2)),
    st.tuples(st.just("write"), st.integers(0, 2)),
)


@st.composite
def programs(draw):
    """Top-level actors, a pool of child bodies, the actors poked before
    the run starts, and the stop times of a chunked run."""
    pool = [draw(st.lists(OPS, max_size=4)) for _ in range(3)]
    n = draw(st.integers(1, 4))
    actors = [draw(st.lists(OPS, max_size=6)) for _ in range(n)]
    poked = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    stops = draw(st.lists(st.integers(1, 12), max_size=3, unique=True))
    return pool, actors, poked, sorted(s / 2 for s in stops)


#: Children nest this deep at most; deeper spawns are skipped.
MAX_DEPTH = 3


def run_program(pool, actors, poked, stops):
    """One run with every observer attached; returns everything an
    observer or the program itself could tell apart."""
    env = Environment()
    trace, recorder = EventTrace(), Recorder()
    profiler, sanitizer = SimProfiler(), RaceSanitizer()
    for observer in (trace, recorder, profiler, sanitizer):
        env.observe(observer)
    res = Resource(env, capacity=1)
    log = []
    names = iter(range(10_000))

    def returns_early(me):
        log.append(("early", me, env.now))
        return me
        yield  # a generator that never reaches a yield

    def start(ops, depth, poked=False):
        me = next(names)
        # A poked process sleeps first, so the interrupt finds it alive.
        body = [("sleep", 0)] + ops if poked else ops
        return env.process(actor(me, body, depth), name=f"a{me}")

    def actor(me, ops, depth):
        log.append(("started", me, env.now))
        try:
            for op, arg in ops:
                if op in ("spawn", "join", "poke") and depth >= MAX_DEPTH:
                    continue
                if op == "spawn":
                    start(pool[arg], depth + 1)
                elif op == "join":
                    value = yield start(pool[arg], depth + 1)
                    log.append(("joined", me, value, env.now))
                elif op == "poke":
                    start(pool[arg], depth + 1, poked=True).interrupt(me)
                elif op == "early":
                    env.process(returns_early(next(names)))
                elif op == "twins":
                    first = env.process(returns_early(next(names)))
                    second = env.process(returns_early(next(names)))
                    if arg:
                        log.append(("twins", me, (yield first & second)[second]))
                elif op == "sleep":
                    yield arg / 2
                elif op == "succeed":
                    event = env.event().succeed(arg)
                    log.append(("event", me, (yield event), env.now))
                elif op == "hold":
                    with (yield res):
                        yield arg / 2
                elif op == "write":
                    env.note_access(f"cell{arg}", "w")
        except Interrupt as stop:
            log.append(("interrupted", me, stop.cause, env.now))
        log.append(("done", me, env.now))
        return me

    procs = [start(ops, 0, k in poked) for k, ops in enumerate(actors)]
    for k in poked:
        procs[k].interrupt("top")
    for stop in stops:
        if stop > env.now:
            env.run(until=stop)
            log.append(("stopped", stop, env.peek()))
    env.run()
    assert env.peek() == math.inf
    assert all(not proc.is_alive for proc in procs)
    sanitizer.finish()
    for observer in (trace, recorder, profiler, sanitizer):
        env.unobserve(observer)
    return (
        log,
        (trace.count, trace.fingerprint),
        recorder.calls,
        profiler.as_dict(),
        sanitizer.reports,
    )


def both_ways(program):
    """The run, then the reference's.  Both run from one line: a race
    report names the call sites of each access."""
    return [run_program(*program) for _ in own_then_reference()]


def own_then_reference():
    """Yield twice: with the kernel's constructor, then the reference's."""
    yield
    with initialize_starts():
        yield


# Hand-picked programs, so that each case runs every time and not only
# when the search finds it.  Two actors spawn, join and poke children in
# one step; the children's starts and exits interleave on the urgent lane.
NESTED = (
    [[("early", 0), ("sleep", 1)], [("join", 0), ("twins", 1)], [("write", 0)]],
    [[("spawn", 0), ("join", 1), ("poke", 2), ("twins", 1)], [("write", 0), ("poke", 0)]],
    [],
    [],
)
# Two actors poked before the run starts, in a chunked run that stops
# while actor 1 holds the slot and once it is asleep.
POKED_AT_ZERO = (
    [[], [], []],
    [[("sleep", 3)], [("hold", 2), ("sleep", 3)], [("hold", 1)]],
    [0, 2],
    [0.5, 1.5],
)
# An actor that never yields: its start and exit in one step.
NEVER_YIELDS = ([[], [], []], [[("write", 1)], [("early", 0), ("write", 1)]], [], [])


@settings(max_examples=150, deadline=None)
@given(programs())
@example(NESTED)
@example(POKED_AT_ZERO)
@example(NEVER_YIELDS)
def test_a_start_without_initialize_gives_the_same_stream(program):
    own, reference = both_ways(program)
    assert own == reference


def hooks_of(calls):
    """The begin/end pairs of a recorder, as ``(priority, label, n)``."""
    hooks = [call for call in calls if call[0] in ("begin", "end")]
    return [(begin[2], begin[4], end[1]) for begin, end in zip(hooks[::2], hooks[1::2])]


def test_the_hand_picked_programs_start_exit_and_interrupt_as_meant():
    log, _, calls, *_ = run_program(*NESTED)
    # Actor 1 pokes child 4 before its start; actor 0 pokes child 10.
    assert [e for e in log if e[0] == "interrupted"] == [
        ("interrupted", 4, 1, 0.0), ("interrupted", 10, 0, 0.5),
    ]
    assert ("joined", 0, 3, 0.5) in log and ("twins", 0, 12) in log
    fired = hooks_of(calls)
    starts = [entry for entry in fired if entry[1] == "Initialize"]
    assert starts and all(entry == (URGENT, "Initialize", 1) for entry in starts)
    labels = [label for _, label, _ in fired]
    # An exit fires between two starts.
    first_exit = next(i for i, label in enumerate(labels) if label.startswith("Process:"))
    assert "Initialize" in labels[first_exit + 1:]
    log, *_ = run_program(*POKED_AT_ZERO)
    assert [e for e in log if e[0] == "interrupted"] == [
        ("interrupted", 0, "top", 0.0), ("interrupted", 2, "top", 0.0),
    ]


def test_a_start_is_the_process_on_the_urgent_lane():
    env = Environment()
    recorder = Recorder()
    env.observe(recorder)

    def body():
        yield 1

    proc = env.process(body(), name="p")
    (seq, entry), = env._urgent
    assert entry is proc and proc._wake is seq
    assert recorder.calls == [("schedule", seq, 0.0)]
    env.step()
    assert proc._wake == seq + 1 and proc.target is None
    assert recorder.calls[1:] == [
        ("begin", 0.0, URGENT, seq, "Initialize"),
        ("schedule", proc._wake, 1),  # its sleep, from inside the start
        ("end", 1),
    ]
