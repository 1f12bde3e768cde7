"""Shared-resource primitives for the simulation kernel.

Provides the two resources used throughout the HVAC models:

* :class:`Resource` — ``capacity`` concurrent holders, FIFO queueing.
  Models NVMe queue slots, MDS service threads, NIC DMA engines.
* :class:`PriorityResource` — like :class:`Resource` but the wait queue
  is ordered by a numeric priority (lower = sooner).

Message queues (:class:`Store`) live in :mod:`.stores`.

Requests are events; the idiomatic usage mirrors SimPy, except that a
process holding the resource sleeps by yielding its delay::

    with resource.request() as req:
        yield req
        yield service_time
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heapify, heappop, heappush

from .engine import _PENDING, Environment, Event, SimulationError

__all__ = ["Resource", "PriorityResource"]


class _BaseRequest(Event):
    """Common machinery for resource requests: context-manager + cancel."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "_BaseRequest":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource._cancel(self)

    def cancel(self) -> None:
        """Release if held, or withdraw from the wait queue."""
        self.resource._cancel(self)


class Request(_BaseRequest):
    __slots__ = ()


class Resource:
    """FIFO resource with fixed integer capacity."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        # Insertion-ordered dict used as a set: holder lookup and
        # removal are O(1) whatever the capacity.
        self.users: dict[Request, None] = {}
        # Deque: NVMe/NIC queues grant from the head once per service
        # completion, and list.pop(0) is O(n) per event (PERF105).  It
        # is built on first contention: most resources in a large fleet
        # never queue, and an empty deque costs 760 B.
        self.queue: deque[Request] | None = None

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of waiting requests."""
        return len(self.queue) if self.queue else 0

    def request(self) -> Request:
        req = Request(self)
        if len(self.users) < self._capacity:
            # Granted on the spot: trigger it and append it to the
            # normal lane in place, as Event.succeed would.
            self.users[req] = None
            req._value = None
            env = self.env
            seq = next(env._seq)
            env._normal.append((seq, req))
            if env._schedules:
                env._note_schedule(seq, 0.0)
        else:
            if self.queue is None:
                self.queue = deque()
            self.queue.append(req)
        return req

    # -- internals -----------------------------------------------------
    def _cancel(self, request: Request) -> None:
        if request in self.users:
            del self.users[request]
            if self.queue:
                self._grant_next()
        elif self.queue:
            try:
                self.queue.remove(request)
            except ValueError:
                pass  # never granted, never queued (double cancel) — no-op

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            self.users[nxt] = None
            nxt.succeed()


class _PriorityRequest(_BaseRequest):
    __slots__ = ("priority", "_key")

    def __init__(self, resource: "PriorityResource", priority: float):
        super().__init__(resource)
        self.priority = priority
        self._key = (priority, next(resource._tiebreak))

    def __lt__(self, other: "_PriorityRequest") -> bool:
        return self._key < other._key


class PriorityResource(Resource):
    """Resource whose waiters are served lowest-priority-value-first."""

    def __init__(self, env: Environment, capacity: int = 1):
        super().__init__(env, capacity)
        self._tiebreak = itertools.count()
        self.queue = []  # heap of _PriorityRequest (heapq needs a list)

    def request(self, priority: float = 0.0) -> _PriorityRequest:  # type: ignore[override]
        req = _PriorityRequest(self, priority)
        if len(self.users) < self._capacity:
            self.users[req] = None
            req.succeed()
        else:
            heappush(self.queue, req)
        return req

    def _cancel(self, request: _PriorityRequest) -> None:  # type: ignore[override]
        if request in self.users:
            del self.users[request]
            if self.queue:
                self._grant_next()
        else:
            try:
                self.queue.remove(request)
                heapify(self.queue)
            except ValueError:
                pass

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = heappop(self.queue)
            self.users[nxt] = None
            nxt.succeed()
