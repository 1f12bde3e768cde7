"""Shared-resource primitives for the simulation kernel.

Provides the two resources used throughout the HVAC models:

* :class:`Resource` — ``capacity`` concurrent holders, FIFO queueing.
  Models NVMe queue slots, MDS service threads, NIC DMA engines.
* :class:`PriorityResource` — like :class:`Resource` but the wait queue
  is ordered by a numeric priority (lower = sooner).

Message queues (:class:`Store`) live in :mod:`.stores`.

A process waits for a :class:`Resource` slot by yielding the resource,
and is resumed with it once it holds one; leaving the ``with`` frees
the slot.  No request object is built (docs/INTERNALS.md §1, "Resources
and stores")::

    with (yield resource):
        yield service_time

A :class:`PriorityResource` still hands out request events:
``with res.request(priority) as req: yield req``.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heapify, heappop, heappush
from numbers import Real

from .engine import Environment, Event, Process, SimulationError

__all__ = ["Resource", "PriorityResource"]


def _check_capacity(capacity) -> int:
    """A whole number of slots ``>= 1`` (``2.0`` and numpy ints too)."""
    whole = isinstance(capacity, Real) and capacity >= 1 and capacity % 1 == 0
    if isinstance(capacity, bool) or not whole:  # NaN and inf are not whole
        raise SimulationError(f"capacity must be a whole number >= 1, got {capacity!r}")
    return int(capacity)


class Resource:
    """FIFO resource with fixed integer capacity."""

    __slots__ = ("env", "_capacity", "_count", "queue")

    def __init__(self, env: Environment, capacity: int = 1):
        self.env = env
        self._capacity = _check_capacity(capacity)
        self._count = 0  # holders, counting grants not yet fired
        # Waiting processes.  A deque: a release grants from the head,
        # and list.pop(0) is O(n) per event (PERF105).  It is built on
        # first contention: most resources in a large fleet never queue,
        # and an empty deque costs 760 B.
        self.queue: deque[Process] | None = None

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of current holders."""
        return self._count

    @property
    def queued(self) -> int:
        """Number of waiting processes."""
        return len(self.queue) if self.queue else 0

    def request(self, process: Process) -> None:
        """Grant ``process``, which has just yielded this resource, a
        free slot, or queue it: the kernel's half of ``yield res``."""
        if self._count < self._capacity:
            self._count += 1
            env = self.env
            seq = next(env._seq)
            env._normal.append((seq, process))
            process._wake = seq
            if env._schedules:
                env._note_schedule(seq, 0.0)
        else:
            if self.queue is None:
                self.queue = deque()
            self.queue.append(process)

    def __enter__(self) -> "Resource":
        # ``with res:`` without the ``yield`` holds no slot, yet its exit
        # would free one.
        if not self._count:
            raise SimulationError("no slot held: write 'with (yield res):'")
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        if not self.queue:
            if not self._count:
                raise SimulationError("release of a Resource slot that is not held")
            self._count -= 1
            return
        # A process queues only while every slot is held: the slot just
        # freed passes to the head waiter, whose grant draws its seq now.
        process = self.queue.popleft()
        env = self.env
        seq = next(env._seq)
        env._normal.append((seq, process))
        process._wake = seq
        if env._schedules:
            env._note_schedule(seq, 0.0)


class _PriorityRequest(Event):
    """A :class:`PriorityResource` request: it triggers on the grant,
    and leaving its ``with`` releases it or withdraws it."""

    __slots__ = ("resource", "_key")

    def __init__(self, resource: "PriorityResource", priority: float):
        super().__init__(resource.env)
        self.resource = resource
        self._key = (priority, next(resource._tiebreak))

    def __lt__(self, other: "_PriorityRequest") -> bool:
        return self._key < other._key

    def __enter__(self) -> "_PriorityRequest":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource._cancel(self)


class PriorityResource:
    """Resource whose waiters are served lowest-priority-value-first."""

    def __init__(self, env: Environment, capacity: int = 1):
        self.env = env
        self._capacity = _check_capacity(capacity)
        self.users: dict[_PriorityRequest, None] = {}
        self.queue: list[_PriorityRequest] = []  # heap
        self._tiebreak = itertools.count()

    def request(self, priority: float = 0.0) -> _PriorityRequest:
        req = _PriorityRequest(self, priority)
        if len(self.users) < self._capacity:
            self.users[req] = None
            req.succeed()
        else:
            heappush(self.queue, req)
        return req

    def _cancel(self, request: _PriorityRequest) -> None:
        if request not in self.users:
            self.queue.remove(request)
            heapify(self.queue)
            return
        del self.users[request]
        if self.queue:  # the freed slot passes to the first waiter
            nxt = heappop(self.queue)
            self.users[nxt] = None
            nxt.succeed()
