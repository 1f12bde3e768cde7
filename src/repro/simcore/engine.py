"""Discrete-event simulation engine.

A compact, deterministic, generator-based discrete-event kernel in the
style of SimPy, built from scratch for this project.  Every stateful
component of the reproduction (NVMe devices, GPFS metadata servers, the
HVAC data-mover threads, DL training loops) runs as a :class:`Process`
over a shared :class:`Environment`.

Semantics
---------
* A *process* is a Python generator that ``yield``\\ s :class:`Event`
  objects.  The process is suspended until the yielded event triggers,
  at which point the event's value is sent back into the generator (or
  its exception raised inside it).
* A process may also yield a delay, a real number ``d >= 0``: it sleeps
  ``d`` time units and resumes with ``None``.  It fires as a wait on
  ``env.timeout(d)`` would, but builds no :class:`Timeout`.
* A process may yield a :class:`~repro.simcore.resources.Resource`: it
  resumes with the resource once it holds a slot, so ``with (yield
  res):`` holds one for the block.  No ``Request`` object is built.
* Simulated time is a float (seconds, by convention in this project).
  Events scheduled at equal times fire in FIFO order of scheduling,
  which makes every run bit-for-bit deterministic.
* :meth:`Process.interrupt` raises :class:`Interrupt` inside a running
  process — used for cancellation (e.g. tearing down HVAC servers when
  a job ends).
"""

from __future__ import annotations

import gc
import itertools
from collections import deque
from heapq import heapify, heappop, heappush
from numbers import Real
from typing import Any, Generator, Iterable, Optional

from .monitor import MetricRegistry
from .trace import event_label

__all__ = [
    "CollectorPause",
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "run_all",
]

# Event state markers (kept as module-level singletons for cheap checks).
_PENDING = object()

# Scheduling priorities: URGENT beats NORMAL at the same timestamp.  The
# engine uses URGENT internally for process resumption so that a chain of
# zero-delay events completes before the clock is allowed to advance past
# co-scheduled timeouts.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


def _check_delay(delay: Any) -> None:
    """Raise :class:`SimulationError` unless ``delay`` can be waited out.

    The one check behind both ``env.timeout(delay)`` and ``yield
    delay``: a real number ``>= 0`` (numpy floats too) is a delay; a
    bool, NaN, a negative number or anything else is not.  Both callers
    let a plain ``float`` or ``int`` ``>= 0`` skip it; ``isinstance``
    against the ``Real`` ABC alone costs about 0.6 µs.
    """
    if isinstance(delay, bool) or not (
        isinstance(delay, (int, float)) or isinstance(delay, Real)
    ):
        raise SimulationError(f"Delay {delay!r} is not a number")
    if delay < 0:
        raise SimulationError(f"Negative delay {delay!r}")
    if not delay >= 0:  # NaN
        raise SimulationError(f"Delay {delay!r} is not a number")


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party supplies ``cause``, available via
    :attr:`cause` on the caught exception.
    """

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """A condition that may happen at some point in simulated time.

    An event starts *pending*; it becomes *triggered* once it has a
    value (or exception) and has been scheduled; it is *processed* after
    its callbacks have run.  Callbacks are ``f(event)`` callables.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused = False

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} at {id(self):#x} {self._state_str()}>"

    def _state_str(self) -> str:
        if self._value is _PENDING:
            return "pending"
        if self.callbacks is not None:
            return "triggered"
        return "processed"

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True after callbacks have executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only when triggered)."""
        if self._value is _PENDING:
            raise SimulationError("Event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or stored exception if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("Event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        seq = next(env._seq)
        env._normal.append((seq, self))
        if env._schedules:
            env._note_schedule(seq, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on this
        event.  If nothing ever waits, the engine raises it at the end
        of the step (unless :meth:`defused`).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        seq = next(env._seq)
        env._normal.append((seq, self))
        if env._schedules:
            env._note_schedule(seq, 0.0)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy success/failure from another (triggered) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self._defuse_other(event)
            self.fail(event._value)

    @staticmethod
    def _defuse_other(event: "Event") -> None:
        event._defused = True

    def defused(self) -> "Event":
        """Mark a failed event as handled so the kernel won't re-raise."""
        self._defused = True
        return self

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        cls = delay.__class__
        if not ((cls is float or cls is int) and delay >= 0):
            _check_delay(delay)
        # Built and scheduled in place (see "Scheduling sites" in
        # docs/INTERNALS.md §1).  Always on the heap, even at zero
        # delay: cancelled entries live only there.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        seq = next(env._seq)
        heappush(env._queue, (env._now + delay, NORMAL, seq, self))
        if env._schedules:
            env._note_schedule(seq, delay)

    def cancel(self) -> None:
        """Withdraw the timeout so that it never fires.

        Its callbacks and value are dropped now, which frees whatever
        they hold (an answered RPC's deadline callback and its ``done``
        with the reply) at once instead of at the deadline.  It costs no
        step and never reaches an observer.  A cancelled timeout reads
        as processed; do not yield it.  Cancelling a timeout that
        already fired, or twice, does nothing.
        """
        if self.callbacks is None:
            return
        self.callbacks = None
        self._value = None
        self.env._note_cancel()


class Initialize(Event):
    """Internal: kicks a freshly created process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        seq = next(env._seq)
        env._urgent.append((seq, self))
        if env._schedules:
            env._note_schedule(seq, 0.0)


class Process(Event):
    """A running generator.  Also an event: it triggers when the
    generator returns (value = return value) or raises (failure)."""

    __slots__ = ("_generator", "_target", "_wake", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # The event (or resource) this process waits on; None while
        # active or asleep.
        self._target: Optional[Event | Resource] = None
        # The seq of its pending wake or grant; an entry whose seq is
        # not this one is stale and resumes nobody.
        self._wake: Optional[int] = None
        Initialize(env, self)

    def __repr__(self) -> str:
        return f"<Process({self.name}) {self._state_str()}>"

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event | Resource]:
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside this process.

        Interrupting a finished process is an error; interrupting a
        process from itself is also an error.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("A process is not allowed to interrupt itself")
        # Deliver the interrupt through a throw-event at the head of the queue.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._interrupted)
        self.env._schedule(event, URGENT)

    # -- engine internals ---------------------------------------------
    def _interrupted(self, event: Event) -> None:
        """Detach the process from what it waits on, then throw.  A
        pending wake or grant goes stale when the interrupt fires, not
        when it is requested.  A resource waiter leaves first, as a
        request's ``__exit__`` did: a pending grant frees its slot for
        the next waiter; a queued waiter is withdrawn.  A store get
        leaves its wait queue, or it would swallow an item."""
        target = self._target
        self._target = None
        if target.__class__ is Resource:
            if self._wake is None:
                target.queue.remove(self)
            else:
                target.__exit__(None, None, None)
        elif target is not None:
            try:
                target.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
            withdraw = getattr(target, "_withdraw", None)
            if withdraw is not None:
                withdraw()
        self._wake = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the triggering event's outcome."""
        env = self.env
        env._active_proc = self
        self._target = None
        while True:
            try:
                if event._ok:
                    next_evt = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_evt = self._generator.throw(type(exc), exc, None)
            except StopIteration as stop:
                outcome, ok = stop.value, True
                break
            except BaseException as err:
                outcome, ok = err, False
                break

            if not isinstance(next_evt, Event):
                # A delay: sleep on the heap with no Timeout.  A plain
                # float or int >= 0 skips the full check, as in Timeout.
                cls = next_evt.__class__
                if not ((cls is float or cls is int) and next_evt >= 0):
                    if cls is Resource:
                        # Wait for a slot, with no Request object.
                        if next_evt.env is not env:
                            err = SimulationError("Resource of a different Environment")
                            outcome, ok = err, False
                            break
                        self._target = next_evt
                        next_evt.request(self)
                        env._active_proc = None
                        return
                    try:
                        _check_delay(next_evt)
                    except SimulationError as problem:
                        err = SimulationError(
                            f"Process {self.name!r} yielded non-event"
                            f" {next_evt!r} ({problem})"
                        )
                        outcome, ok = err, False
                        break
                seq = next(env._seq)
                heappush(env._queue, (env._now + next_evt, NORMAL, seq, self))
                self._wake = seq
                if env._schedules:
                    env._note_schedule(seq, next_evt)
                env._active_proc = None
                return
            if next_evt.env is not env:
                err = SimulationError("Event belongs to a different Environment")
                outcome, ok = err, False
                break

            callbacks = next_evt.callbacks
            if callbacks is not None:
                # Event still pending or triggered-but-unprocessed: wait on
                # it.  The bound method is built per wait on purpose: caching
                # it on the process is a reference cycle per process.
                callbacks.append(self._resume)
                self._target = next_evt
                env._active_proc = None
                return
            # Event already processed: loop immediately with its outcome.
            event = next_evt

        # Generator finished (or died).
        self._ok = ok
        self._value = outcome
        if not ok and isinstance(outcome, BaseException):
            # If nobody is waiting on this process the error must surface.
            self._defused = bool(self.callbacks)
        seq = next(env._seq)
        env._urgent.append((seq, self))
        if env._schedules:
            env._note_schedule(seq, 0.0)
        env._active_proc = None


class Condition(Event):
    """Composite event over multiple sub-events.

    Counts down the sub-events it still needs (``_needed``) and succeeds
    when none is left, with a dict mapping each sub-event that has
    *fired* to its value (:meth:`_values`).  Fails as soon as any
    sub-event fails.  A subclass sets the count and builds the dict.
    """

    __slots__ = ("_events", "_needed")

    def __init__(self, env: "Environment", events: list, needed: int):
        super().__init__(env)
        self._events = events
        self._needed = needed
        for evt in events:
            if evt.env is not env:
                raise SimulationError("Events from different environments")
        if not events:
            self.succeed({})
            return
        for evt in events:
            if evt.callbacks is None:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _values(self, event: Event) -> dict:
        """The success value, once ``event`` has made the count zero."""
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self._needed -= 1
            if self._needed:
                return
            self.succeed(self._values(event))
        self._withdraw_losers()

    def _withdraw_losers(self) -> None:
        """Cancel still-pending wait-queue sub-events once the condition
        has resolved: an abandoned ``store.get()`` losing a
        ``get | timeout`` race must not linger as a phantom consumer
        that swallows the next item."""
        for evt in self._events:
            if evt._value is _PENDING:
                withdraw = getattr(evt, "_withdraw", None)
                if withdraw is not None:
                    withdraw()


class AllOf(Condition):
    """Triggers once *all* sub-events have triggered.  Its value holds
    every sub-event, in list order."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        events = list(events)
        super().__init__(env, events, len(events))

    def _values(self, event: Event) -> dict:
        return {evt: evt._value for evt in self._events}


class AnyOf(Condition):
    """Triggers once *any* sub-event has triggered.  Its value holds the
    one sub-event that fired first."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, list(events), 1)

    def _values(self, event: Event) -> dict:
        return {event: event._value}


def _wait_all(env: "Environment", procs: list) -> Generator:
    yield AllOf(env, procs)


def run_all(env: "Environment", procs: list, name: str) -> None:
    """Run the sim until every process in ``procs`` has finished; the
    process that waits for them is called ``name``."""
    env.run(env.process(_wait_all(env, procs), name=name))


def _is_cancelled(entry: tuple) -> bool:
    """Is this heap entry a cancelled timeout?  A sleeper's entry never
    is, not even once its process has finished (``callbacks is None``
    then too): a stale wake still fires."""
    item = entry[3]
    return item.callbacks is None and item.__class__ is not Process


def _hooks(observers: tuple, name: str) -> tuple:
    """The bound ``name`` methods of the observers that define one."""
    return tuple(
        getattr(obs, name) for obs in observers if hasattr(obs, name)
    )


class CollectorPause:
    """Pause Python's cyclic garbage collector for one unit of work.

    ``with CollectorPause():`` saves :func:`gc.isenabled`, disables the
    collector and restores the saved state on exit, also when an
    exception escapes; a caller that had disabled the collector keeps
    it disabled.  Take it once around work that builds a large,
    long-lived object graph and leaves (almost) no cyclic garbage: a
    simulation run, a static check from ``Program.read`` through its
    last pass, one fuzz execution.  Released between its parts, the
    collector would sweep the freshly built graph again; see
    ``docs/INTERNALS.md`` §1, "The collector".
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> "CollectorPause":
        self._was_enabled = gc.isenabled()
        gc.disable()
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        if self._was_enabled:
            gc.enable()


class Environment:
    """The simulation kernel: clock + event queue + process scheduler."""

    def __init__(self):
        self._now = 0.0
        # Timeouts and sleeping processes, the two things scheduled with
        # a delay, go on a heap of (time, NORMAL, seq, event or
        # process).  Every other event is scheduled at `now` and
        # appended as (seq, event) to the FIFO lane of its priority;
        # `seq` only grows, so each lane is sorted and step() merges the
        # three in (time, priority, seq) order ("Scheduling sites" in
        # docs/INTERNALS.md §1).
        self._queue: list = []
        self._urgent: deque = deque()
        self._normal: deque = deque()
        # Cancelled timeouts still in the heap.  They leave it lazily
        # (see _note_cancel), but the head of the heap is never one.
        self._cancelled = 0
        # What a woken sleeper or grantee's _resume reads: a processed
        # success whose value step() sets to what the process waits on:
        # None for a sleeper, as its Timeout had; the resource for a
        # grantee.  (A resource holding itself would be a cycle.)
        self._woken = Event(self)
        self._woken.callbacks = None
        self._seq = itertools.count()
        self._active_proc: Optional[Process] = None
        # Opt-in observers (see "Observers" in docs/INTERNALS.md §1).
        # The kernel keeps one tuple of bound hooks per protocol method.
        # The scheduling sites test `_schedules` and step() tests the
        # `_observed` flag, so a bare run pays one attribute test per
        # site and builds no label.
        self._observers: tuple = ()
        self._begins: tuple = ()
        self._schedules: tuple = ()
        self._ends: tuple = ()
        self._notes: tuple = ()
        self._observed = False
        #: True while some observer takes :meth:`note_access` calls;
        #: callers that build a cell name per call guard on it.
        self.noting = False
        #: The run's one metric registry; every component's ``.metrics``.
        self.metrics = MetricRegistry()
        #: The run's :class:`~repro.obs.SpanRecorder`, or None (untraced).
        #: An entry point sets it before building anything: components
        #: read it once, in their constructors (docs/INTERNALS.md §5).
        self.spans = None

    # -- observers -----------------------------------------------------
    def observe(self, observer) -> None:
        """Show ``observer`` every event fired from now on.

        An observer defines any of ``begin_event(time, priority, seq,
        label)`` (an event is popped), ``note_schedule(seq, delay)`` (an
        event is pushed), ``end_event(n_callbacks)`` (its callbacks
        ran) and ``note(cell, mode, tag)`` (a shared-state access, see
        :meth:`note_access`).  Observers observe only: they create no
        events and draw no RNG, so the event-stream fingerprint is the
        same with or without them.
        """
        self._rewire(self._observers + (observer,))

    def unobserve(self, observer) -> None:
        """Stop showing events to ``observer``."""
        self._rewire(tuple(o for o in self._observers if o is not observer))

    def _rewire(self, observers: tuple) -> None:
        self._observers = observers
        self._begins = _hooks(observers, "begin_event")
        self._schedules = _hooks(observers, "note_schedule")
        self._ends = _hooks(observers, "end_event")
        self._notes = _hooks(observers, "note")
        self._observed = bool(self._begins or self._ends)
        self.noting = bool(self._notes)

    def note_access(self, cell: str, mode: str, tag=None) -> None:
        """Declare a read (``"r"``) or write (``"w"``) of a registered
        shared-state cell by the currently executing event.

        ``tag`` marks idempotent writes: two pure writes of the same tag
        at one timestamp commute and are not a race.
        """
        for note in self._notes:
            note(cell, mode, tag)

    # -- public surface ----------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A bare, manually-triggered event."""
        return Event(self)

    # -- scheduling / stepping ----------------------------------------
    def _schedule(self, event: Event, priority: int) -> None:
        """Schedule ``event`` at ``now`` on the lane of ``priority``.  The
        hot constructors and :meth:`Event.succeed`/:meth:`Event.fail` do
        the same inline; :class:`Timeout` alone pushes onto the heap."""
        seq = next(self._seq)
        (self._urgent if priority == URGENT else self._normal).append((seq, event))
        if self._schedules:
            self._note_schedule(seq, 0.0)

    def _note_schedule(self, seq: int, delay: float) -> None:
        """Tell the observers about a scheduled event; every scheduling
        site calls this while some observer defines ``note_schedule``
        (``_schedules`` is non-empty), and only then."""
        for note_schedule in self._schedules:
            note_schedule(seq, delay)

    def _note_cancel(self) -> None:
        """Account for a timeout just cancelled in place.

        Rebuilds the heap without the cancelled entries once they are
        more than half of a heap of over 64 entries; otherwise only pops
        cancelled entries off the head.  Heap order is ``(time,
        priority, seq)``, unique per entry, so a rebuild changes nothing
        about what fires when.
        """
        self._cancelled += 1
        queue = self._queue
        if len(queue) > 64 and 2 * self._cancelled > len(queue):
            # In place: run() holds this very list.
            queue[:] = [entry for entry in queue if not _is_cancelled(entry)]
            heapify(queue)
            self._cancelled = 0
        else:
            self._drop_cancelled_head()

    def _drop_cancelled_head(self) -> None:
        queue = self._queue
        while queue and _is_cancelled(queue[0]):
            heappop(queue)
            self._cancelled -= 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue empty."""
        if self._urgent or self._normal:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event.

        The urgent lane goes first: the heap holds only NORMAL entries.
        The normal lane's head goes next unless the heap's head is due
        now with a smaller seq (a ``Timeout(0)``, or a timeout or sleep
        that falls due at this instant, scheduled before it).

        A sleeper's wake fires as the :class:`Timeout` it replaces, and
        a resource grant (a process on the normal lane) as the
        ``Request`` it replaces: observers see that label and one
        callback, or none for a stale entry, which resumes nobody.
        """
        queue = self._queue
        urgent = self._urgent
        normal = self._normal
        if urgent:
            priority = URGENT
            seq, event = urgent.popleft()
        else:
            priority = NORMAL
            if normal and not (
                queue and queue[0][0] == self._now and queue[0][2] < normal[0][0]
            ):
                seq, event = normal.popleft()
                label = "Request"  # a Process on the normal lane is a grant
            else:
                try:
                    self._now, priority, seq, event = heappop(queue)
                except IndexError:
                    raise SimulationError("No scheduled events") from None
                if self._cancelled and queue:
                    # _is_cancelled inline: most pops run this test while
                    # cancelled RPC deadlines wait in the heap.
                    head = queue[0][3]
                    if head.callbacks is None and head.__class__ is not Process:
                        # Keep the head live, so peek() and run()'s stop
                        # test read the time of an event that will really
                        # fire.
                        self._drop_cancelled_head()
                label = "Timeout"
            if event.__class__ is Process:
                observed = self._observed
                if observed:
                    for begin_event in self._begins:
                        begin_event(self._now, NORMAL, seq, label)
                # The very seq object the sleep or grant drew, unless stale.
                live = event._wake is seq
                if live:
                    event._wake = None
                    woken = self._woken
                    woken._value = event._target
                    event._resume(woken)
                if observed:
                    for end_event in self._ends:
                        end_event(1 if live else 0)
                return

        observed = self._observed
        if observed:
            label = event_label(event)
            for begin_event in self._begins:
                begin_event(self._now, priority, seq, label)

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if observed:
            for end_event in self._ends:
                end_event(len(callbacks))

        if not event._ok and not event._defused:
            # Unhandled failure: crash the simulation loudly.
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a time,
        or an :class:`Event` (run until it triggers; returns its value).

        An event of another environment raises :class:`SimulationError`.

        The loop runs under a :class:`CollectorPause`: the cyclic
        garbage collector is off while it runs and the caller's state
        comes back on the way out, even when an unhandled failure
        escapes.  The hot path makes no cycles
        (``tests/test_gc_pause.py`` checks it), so a collection mid-run
        would only traverse the reads in flight and find nothing; see
        ``docs/INTERNALS.md`` §1, "The collector".
        """
        if until is None:
            stop_at = float("inf")
            stop_evt: Optional[Event] = None
        elif isinstance(until, Event):
            stop_evt = until
            stop_at = float("inf")
            if stop_evt.env is not self:
                raise SimulationError("Event belongs to a different Environment")
            if stop_evt.callbacks is None:  # already processed
                if not stop_evt._ok:
                    stop_evt._defused = True
                    raise stop_evt._value
                return stop_evt._value
        else:
            stop_at = float(until)
            stop_evt = None
            if not stop_at > self._now:  # NaN too, which `<=` lets through
                raise SimulationError(
                    f"until={stop_at} must be greater than now={self._now}"
                )

        with CollectorPause():
            # Hoisted loop-invariant lookups: run() drives every
            # experiment, so the per-step overhead here multiplies by
            # the event count.
            queue = self._queue
            urgent = self._urgent
            normal = self._normal
            step = self.step
            if stop_evt is not None:
                done = []
                stop_evt.callbacks.append(done.append)
                while (urgent or normal or queue) and not done:
                    step()
                if done:
                    evt = done[0]
                    if not evt._ok:
                        evt._defused = True
                        raise evt._value
                    return evt._value
                raise SimulationError("Event was never triggered: queue ran dry")

            # A lane entry is due now, and now < stop_at.
            while urgent or normal or (queue and queue[0][0] < stop_at):
                step()
            if stop_at != float("inf"):
                # The clock reaches ``until`` even when the queue drains
                # first: a caller waiting out a period must see it pass.
                self._now = stop_at
            return None


# Last: resources.py imports this module's names.
from .resources import Resource  # noqa: E402
