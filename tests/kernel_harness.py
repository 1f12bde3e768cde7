"""One random-program harness for the kernel properties.

:func:`programs` draws programs whose actors mix sleeps, grabs, nested
grabs, spawns, early-returning children, joins, interrupts, timer
cancels, store gets and puts, ``AllOf``/``AnyOf`` and ``run(until=t)``
chunks, all on a half-unit time grid so that events tie.
:func:`run_program` runs one with every observer attached, in the
kernel's own spellings or in the reference's
(``tests/kernel_reference.py``), and returns a :class:`Run`: everything
an observer or the program itself could tell apart.
"""

import math
from contextlib import nullcontext
from itertools import count
from typing import NamedTuple

from hypothesis import strategies as st

from repro.check.races import RaceSanitizer
from repro.simcore import (
    AllOf,
    AnyOf,
    Environment,
    EventTrace,
    Interrupt,
    Resource,
    SimProfiler,
    Store,
    Timeout,
)
from repro.simcore.engine import NORMAL, URGENT

from . import kernel_reference as ref


class Recorder:
    """The one recording observer: every hook call, as the observers
    are told them.  A schedule also notes when it falls due and its
    priority, URGENT when it went to the urgent lane."""

    def __init__(self, env):
        self.env = env
        self.calls = []

    def note_schedule(self, seq, delay):
        env = self.env
        urgent = env._urgent and env._urgent[-1][0] == seq
        self.calls.append(
            ("schedule", seq, delay, env.now + delay, URGENT if urgent else NORMAL)
        )

    def begin_event(self, time, priority, seq, label):
        self.calls.append(("begin", time, priority, seq, label))

    def end_event(self, n_callbacks):
        self.calls.append(("end", n_callbacks))


def fired(calls):
    """Each event a :class:`Recorder` saw fire, as ``(time, priority,
    seq, label, n_callbacks)``."""
    hooks = [call for call in calls if call[0] != "schedule"]
    return [begin[1:] + end[1:] for begin, end in zip(hooks[::2], hooks[1::2])]


class Program(NamedTuple):
    """The top-level actors (lists of ops), the resource capacities, the
    three child bodies ``spawn``, ``join`` and ``poke`` start from, the
    actors interrupted before the run starts, and the stop times of a
    chunked run."""

    actors: list
    capacities: list = [1]
    pool: list = [[], [], []]
    poked: list = []
    stops: list = []


class Run(NamedTuple):
    log: list  #: ``(time, what, actor, ...)`` in the order it happened
    trace: tuple  #: ``EventTrace`` ``(count, fingerprint)``
    calls: list  #: the :class:`Recorder`'s
    profile: dict  #: ``SimProfiler.as_dict()``
    races: list  #: ``RaceSanitizer.reports``
    resources: list  #: ``(count, queued)`` of each resource at the end
    cancelled: list  #: the seq of each timer cancelled before it fired
    produced: list  #: every item put into the store
    delivered: list  #: the item of every get that fired
    leftovers: list  #: the items still in the store


def _op(name, *args):
    return st.tuples(st.just(name), *args)


_I = st.integers
#: Condition sub-events: a timeout, an event processed earlier, one a
#: helper fails later, a store get, and one already in the list.
_SUBS = st.one_of(
    _op("timeout", _I(0, 4)), _op("old", _I(0, 5)), _op("fail", _I(0, 4)),
    _op("get", st.just(0)), _op("repeat", _I(0, 3)),
)
#: Every op by name.
OP = {
    "sleep": _op("sleep", _I(0, 6)),  # n/2, an int when whole
    "grab": _op("grab", _I(0, 2), _I(-1, 4)),  # resource, hold n/2; -1: no yield
    "grab2": _op("grab2", _I(0, 2), _I(-1, 4)),  # resource k, then k+1 inside it
    "spawn": _op("spawn", _I(0, 2)),  # a child that runs pool[n]
    "join": _op("join", _I(0, 2)),
    "poke": _op("poke", _I(0, 2)),  # interrupted before its start
    "early": _op("early", _I(0, 1)),  # returns before its first yield; 1: poked
    "twins": _op("twins", _I(0, 1)),  # two early children; 1: wait for both
    "interrupt": _op("interrupt", _I(0, 15)),
    "cancel": _op("cancel", _I(0, 90), _I(-1, 8)),  # n timers, cancelled now or at n/2
    "succeed": _op("succeed", _I(0, 2)),
    "fail": _op("fail", st.just(0)),
    "put": _op("put", st.just(0)),
    "get": _op("get", _I(0, 4)),  # 0: a plain get, else raced with a timeout
    "cond": _op("cond", st.booleans(), st.lists(_SUBS, max_size=4)),  # True: AnyOf
    "write": _op("write", _I(0, 2)),
}
OPS = st.one_of(*OP.values())


def only(*names):
    """The named ops alone, for programs about one kernel feature."""
    return st.one_of(*(OP[name] for name in names))


@st.composite
def programs(draw, ops=OPS):
    capacities = draw(st.lists(_I(1, 3), min_size=1, max_size=3))
    pool = [draw(st.lists(ops, max_size=4)) for _ in range(3)]
    n = draw(_I(1, 5))
    actors = [draw(st.lists(ops, max_size=8)) for _ in range(n)]
    poked = draw(st.lists(_I(0, n - 1), max_size=2, unique=True))
    stops = draw(st.lists(_I(1, 30), max_size=3, unique=True))
    return Program(actors, capacities, pool, poked, sorted(s / 2 for s in stops))


#: Children nest this deep at most; deeper spawns are skipped.
MAX_DEPTH = 3


def is_cancelled(item):
    """Is this heap item a cancelled timer?  A stale wake is not."""
    return isinstance(item, Timeout) and item.callbacks is None


def run_program(program, reference=False, cancel=True):
    """One run of ``program``, in the reference's spellings or the
    kernel's; ``cancel=False`` keeps every timer a ``cancel`` op would
    cancel.  A race report names the call sites of each access, so
    compare two runs made from one line."""
    with ref.reference_kernel() if reference else nullcontext():
        env = Environment()
        recorder = Recorder(env)
        observers = (EventTrace(), recorder, SimProfiler(), RaceSanitizer())
        for observer in observers:
            env.observe(observer)
        if reference:
            make, all_of, any_of = ref.RequestResource, ref.AllOf, ref.AnyOf
        else:
            make, all_of, any_of = Resource, AllOf, AnyOf
        resources = [make(env, c) for c in program.capacities]
        store = Store(env)
        log, procs, helpers, old, gets = [], [], [], [], []
        produced, cancelled = [], []
        names = count()

        def wait(d):
            return env.timeout(d) if reference else d

        def check_resources():
            # Never over capacity; a waiter queues only while all are held.
            for res in resources:
                assert res.count <= res.capacity
                assert res.queued == 0 or res.count == res.capacity

        def take(me, k, hold, inner=None):
            res = resources[k]
            with (res.request() if reference else (yield res)) as slot:
                if reference:
                    yield slot
                env.note_access(f"res{k}", "w")
                log.append((env.now, "granted", me, k))
                check_resources()
                if hold >= 0:
                    yield wait(hold / 2)
                if inner is not None:
                    yield from take(me, inner, hold)
            log.append((env.now, "released", me, k))
            check_resources()

        def start(ops, depth, poked=False):
            me = next(names)
            # A poked process sleeps first, so the interrupt finds it alive.
            body = [("sleep", 0)] + ops if poked else ops
            procs.append(env.process(actor(me, body, depth), name=f"a{me}"))
            return procs[-1]

        def returns_early(me):
            log.append((env.now, "early", me))
            return me
            yield  # a generator that never reaches a yield

        def early():
            procs.append(env.process(returns_early(next(names))))
            return procs[-1]

        def fail_later(event, d):
            yield wait(d)
            event.fail(ValueError(d))

        def drop(timers):
            for timer, seq in timers:
                if cancel and not timer.processed:
                    cancelled.append(seq)
                    timer.cancel()

        def drop_later(d, timers):
            yield wait(d)
            drop(timers)

        def condition(me, any_, specs):
            subs = []
            for kind, k in specs:
                if kind == "timeout":
                    subs.append(env.timeout(k / 2, k))
                elif kind == "old" and old:
                    subs.append(old[k % len(old)])
                elif kind == "fail":
                    subs.append(env.event())
                    helpers.append(env.process(fail_later(subs[-1], k / 2)))
                elif kind == "get":
                    gets.append(store.get())
                    subs.append(gets[-1])
                elif kind == "repeat" and subs:
                    subs.append(subs[k % len(subs)])
            try:
                # Defused: an interrupt may leave it unwaited.
                value = yield (any_of if any_ else all_of)(env, subs).defused()
            except ValueError as err:
                log.append((env.now, "failed", me, str(err)))
            else:
                got = [(subs.index(e), v) for e, v in value.items()]
                log.append((env.now, "condition", me, got))

        def actor(me, ops, depth):
            log.append((env.now, "started", me))
            for op in ops:
                name, arg = op[0], op[1]
                try:
                    if name == "sleep":
                        yield wait(arg / 2 if arg % 2 else arg // 2)
                    elif name in ("grab", "grab2"):
                        k = arg % len(resources)
                        inner = (k + 1) % len(resources) if name == "grab2" else None
                        yield from take(me, k, op[2], inner)
                    elif name in ("spawn", "join", "poke") and depth < MAX_DEPTH:
                        child = start(program.pool[arg], depth + 1, poked=name == "poke")
                        if name == "poke":
                            child.interrupt(me)
                        elif name == "join":
                            value = yield child
                            log.append((env.now, "joined", me, value))
                    elif name == "early":
                        child = early()
                        if arg:
                            child.interrupt(me)
                    elif name == "twins":
                        first, second = early(), early()
                        if arg:
                            value = yield all_of(env, [first, second])
                            log.append((env.now, "twins", me, value[second]))
                    elif name == "interrupt":
                        # The first live process from procs[arg] on, not itself.
                        k = arg % len(procs)
                        live = (p for p in procs[k:] + procs[:k] if p.is_alive)
                        victim = next((p for p in live if p is not env.active_process), None)
                        if victim is not None:
                            victim.interrupt(me)
                    elif name == "cancel":
                        timers = [env.timeout(i % 7 / 2) for i in range(arg)]
                        seq_of = {id(entry[3]): entry[2] for entry in env._queue}
                        timers = [(timer, seq_of[id(timer)]) for timer in timers]
                        if op[2] < 0:
                            drop(timers)
                        else:
                            helpers.append(env.process(drop_later(op[2] / 2, timers)))
                    elif name in ("succeed", "fail"):
                        event = env.event()
                        old.append(event)
                        if name == "succeed":
                            value = yield event.succeed(arg)
                            log.append((env.now, "succeeded", me, value))
                        else:
                            try:
                                # Defused: an interrupt may leave it unwaited.
                                yield event.fail(ValueError(me)).defused()
                            except ValueError:
                                log.append((env.now, "caught", me))
                    elif name == "put":
                        produced.append((me, len(produced)))
                        yield store.put(produced[-1])
                    elif name == "get":
                        get = store.get()
                        gets.append(get)
                        yield any_of(env, [get, env.timeout(arg / 2)]) if arg else get
                        log.append((env.now, "got", me, get.value if get.triggered else None))
                    elif name == "cond":
                        yield from condition(me, arg, op[2])
                    elif name == "write":
                        env.note_access(f"cell{arg}", "w")
                except Interrupt as stop:
                    # The resources as the handler sees them: what the
                    # process held or waited for is already let go.
                    held = [(res.count, res.queued) for res in resources]
                    log.append((env.now, "interrupted", me, stop.cause, held))
            log.append((env.now, "done", me))
            return me

        for k, ops in enumerate(program.actors):
            start(ops, 0, poked=k in program.poked)
        for k in program.poked:
            procs[k].interrupt("top")
        for stop in program.stops:
            env.run(until=stop)
            assert env.now == stop
            # Between runs the lanes are empty, only timeouts and sleeps
            # wait on the heap, and its head is live.
            assert not env._urgent and not env._normal
            assert all(entry[1] == NORMAL for entry in env._queue)
            live = [entry[0] for entry in env._queue if not is_cancelled(entry[3])]
            assert env.peek() == min(live, default=math.inf)
            assert not env._queue or not is_cancelled(env._queue[0][3])
            log.append((env.now, "stopped", env.peek()))
        env.run(until=env.timeout(1))
        env.run()
        assert env.peek() == math.inf
        # Each process starts once; each that finished exits once, as
        # itself.
        labels = [event[3] for event in fired(recorder.calls)]
        everyone = procs + helpers
        assert labels.count("Initialize") == len(everyone)
        exits = sum(label.startswith("Process:") for label in labels)
        assert exits == sum(not proc.is_alive for proc in everyone)
        trace, _, profiler, sanitizer = observers
        sanitizer.finish()
        # A process stuck on a slot it holds itself is closed when it is
        # collected, after the run; its exit must not reach the observers.
        for observer in observers:
            env.unobserve(observer)
        return Run(
            log,
            (trace.count, trace.fingerprint),
            recorder.calls,
            profiler.as_dict(),
            sanitizer.reports,
            [(res.count, res.queued) for res in resources],
            cancelled,
            produced,
            [get.value for get in gets if get.triggered],
            list(store.items),
        )


def assert_one_run(program):
    """The kernel's spellings and the reference's give one run: every
    observer and the program itself see the same."""
    own, reference = [run_program(program, reference=r) for r in (False, True)]
    assert own == reference


# Hand-picked programs, so that each case runs every time and not only
# when the search finds it.  Grants: actor 0 holds the one slot until
# t=1, when its release grants actor 1 and, in the same step,
# interrupts it: the grant is still pending.  In these three, an
# interrupted actor takes the slot again with its next op.
PENDING_GRANT = Program(
    [[("grab", 0, 2), ("interrupt", 1)], [("grab", 0, 1), ("grab", 0, 1)], [("grab", 0, 1)]]
)
# Actor 2 interrupts actor 1 while it is still queued behind actor 0.
QUEUED = Program(
    [[("grab", 0, 4)], [("grab", 0, 1), ("grab", 0, 1)], [("sleep", 1), ("interrupt", 1)]],
    stops=[0.5],
)
# Actor 1 interrupts actor 0 while it holds the slot, inside the block.
HOLDER = Program(
    [[("grab", 0, 4), ("grab", 0, 1)], [("sleep", 1), ("interrupt", 0)], [("grab", 0, 0)]],
    capacities=[2],
)
# One step releases two slots (a nested hold), granting two waiters;
# zero-length holds and a chunked run.
NESTED_GRANTS = Program(
    [[("grab2", 0, 2)], [("grab", 0, -1)], [("grab", 1, 0)]], capacities=[1, 1], stops=[0.5, 1.0]
)
# Starts: two actors spawn, join and poke children in one step; the
# children's starts and exits interleave on the urgent lane.
NESTED_STARTS = Program(
    [[("spawn", 0), ("join", 1), ("poke", 2), ("twins", 1)], [("write", 0), ("poke", 0)]],
    pool=[[("early", 0), ("sleep", 1)], [("join", 0), ("twins", 1)], [("write", 0)]],
)
# Two actors poked before the run starts, in a chunked run that stops
# while actor 1 holds the slot and once it is asleep.
POKED_AT_ZERO = Program(
    [[("sleep", 3)], [("grab", 0, 2), ("sleep", 3)], [("grab", 0, 1)]],
    poked=[0, 2],
    stops=[0.5, 1.5],
)
# An actor that never yields: its start and exit in one step.
NEVER_YIELDS = Program([[("write", 1)], [("early", 0), ("write", 1)]])
# Sleeps: actor 1 interrupts actor 0's sleep, which then finishes, and
# cancels enough timers to rebuild the heap while the stale wake waits.
STALE_WAKE = Program(
    [[("sleep", 6)], [("sleep", 2), ("interrupt", 0), ("sleep", 2), ("cancel", 70, -1)]]
)
# A child returns at its start, and its parent interrupted it in the
# step that spawned it: the interrupt lands after the child finished.
LATE_INTERRUPT = Program([[("early", 1), ("sleep", 2)]])
