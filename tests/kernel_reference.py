"""The reference kernel: the event-object spellings the kernel replaced.

Each object the kernel no longer builds fires as the one it replaced
would, with the same seq, label, priority and callback count
(docs/INTERNALS.md §1), so a program run with these spellings must give
the very same stream as one run with the kernel's own:

* a sleep waits on ``env.timeout(d)`` instead of yielding ``d``;
* a grant is a :class:`Request` event of a :class:`RequestResource`
  instead of the process on the normal lane;
* a start is an :class:`Initialize` event, built by
  :func:`initialize_init`, instead of the process on the urgent lane;
* ``AllOf``/``AnyOf`` keep a set of the sub-events that fired instead
  of counting down.

:func:`reference_kernel` swaps the start in; the program harness
(``tests/kernel_harness.py``) picks the other spellings itself.
"""

from collections import deque
from contextlib import contextmanager

from repro.simcore import Event, SimulationError
from repro.simcore.engine import _PENDING, Process


class Request(Event):
    """A request event; its class name is the label a grant keeps."""

    __slots__ = ("resource",)

    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_val, exc_tb):
        self.resource._cancel(self)


class RequestResource:
    """A FIFO resource whose grants are request events:
    ``with res.request() as req: yield req``."""

    def __init__(self, env, capacity):
        self.env = env
        self.capacity = capacity
        self.users = {}
        self.queue = deque()

    @property
    def count(self):
        return len(self.users)

    @property
    def queued(self):
        return len(self.queue)

    def request(self):
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users[req] = None
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def _cancel(self, req):
        if req in self.users:
            del self.users[req]
            while self.queue and len(self.users) < self.capacity:
                nxt = self.queue.popleft()
                self.users[nxt] = None
                nxt.succeed()
        elif req in self.queue:
            self.queue.remove(req)


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
def reference_kernel():
    """Build every process with the reference constructor meanwhile."""
    own = Process.__init__
    Process.__init__ = initialize_init
    try:
        yield
    finally:
        Process.__init__ = own


class Condition(Event):
    """``AllOf``/``AnyOf`` as they were before the countdown: an id-set
    of fired sub-events, an evaluator called on every check, and a value
    dict filtered through the set."""

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


# The class names match the kernel's, so an observer labels both alike.
class AllOf(Condition):
    def __init__(self, env, events):
        super().__init__(env, lambda evs, n: n >= len(evs), events)


class AnyOf(Condition):
    def __init__(self, env, events):
        super().__init__(env, lambda evs, n: n >= 1, events)
