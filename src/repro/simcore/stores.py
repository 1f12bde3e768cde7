"""Message-queue primitives: FIFO and priority stores.

The HVAC server's *shared FIFO queue* (paper §III-C/D: every server
spawns a data-mover thread draining a mutex-protected FIFO of forwarded
file I/O operations) is modelled with :class:`Store`.  RPC endpoints use
one :class:`Store` per mailbox.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Optional

from .engine import _PENDING, Environment, Event, SimulationError

__all__ = ["Store", "PriorityStore", "FilterStore", "StoreFull"]


class StoreFull(Exception):
    """Raised by :meth:`Store.put_nowait` when the store is at capacity."""


class _StorePut(Event):
    __slots__ = ("item", "_store")

    def __init__(self, store: "Store", item: Any):
        self.env = store.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.item = item
        self._store = store

    def _withdraw(self) -> None:
        """Leave the wait queue (the waiting process was interrupted)."""
        try:
            self._store._puts.remove(self)
        except ValueError:
            pass


class _StoreGet(Event):
    __slots__ = ("_store",)

    def __init__(self, store: "Store"):
        self.env = store.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._store = store

    def _withdraw(self) -> None:
        """Leave the wait queue — an interrupted getter must not become
        a phantom consumer that swallows the next item."""
        try:
            self._store._gets.remove(self)
        except ValueError:
            pass


class Store:
    """FIFO store of arbitrary items with optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        # Deques, not lists: every server data-mover pops the head once
        # per forwarded I/O, and list.pop(0) is O(n) per event (PERF105).
        self.items: deque = deque()
        self._puts: deque[_StorePut] = deque()
        self._gets: deque[_StoreGet] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> _StorePut:
        """Insert ``item``; the returned event triggers once stored."""
        evt = _StorePut(self, item)
        self._puts.append(evt)
        self._settle()
        return evt

    def put_nowait(self, item: Any) -> None:
        """Insert immediately or raise :class:`StoreFull`."""
        if len(self.items) >= self._capacity:
            raise StoreFull()
        self.items.append(item)
        self._settle()

    def get(self) -> _StoreGet:
        """Remove and return the oldest item (event-valued)."""
        evt = _StoreGet(self)
        self._gets.append(evt)
        self._settle()
        return evt

    def _do_put(self, evt: _StorePut) -> bool:
        if len(self.items) < self._capacity:
            self.items.append(evt.item)
            evt.succeed()
            return True
        return False

    def _do_get(self, evt: _StoreGet) -> bool:
        if self.items:
            evt.succeed(self.items.popleft())
            return True
        return False

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._puts and self._do_put(self._puts[0]):
                self._puts.popleft()
                progressed = True
            if self._gets and self._do_get(self._gets[0]):
                self._gets.popleft()
                progressed = True


class PriorityStore(Store):
    """Store whose items are retrieved lowest-first (heap order)."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        super().__init__(env, capacity)
        self._tiebreak = itertools.count()
        self.items = []  # heapq needs a list, not the base deque

    def _do_put(self, evt: _StorePut) -> bool:
        if len(self.items) < self._capacity:
            heapq.heappush(self.items, (evt.item, next(self._tiebreak)))
            evt.succeed()
            return True
        return False

    def _do_get(self, evt: _StoreGet) -> bool:
        if self.items:
            item, _ = heapq.heappop(self.items)
            evt.succeed(item)
            return True
        return False


class _FilterStoreGet(_StoreGet):
    __slots__ = ("filter",)

    def __init__(self, store: "Store", filt: Callable[[Any], bool]):
        super().__init__(store)
        self.filter = filt


def _accept_any(item: Any) -> bool:
    """Default FilterStore predicate (module-level: gets are per-event,
    and a fresh lambda per get is pure hot-path allocation, PERF102)."""
    return True


class FilterStore(Store):
    """Store supporting predicated gets: ``get(lambda item: ...)``.

    Used by the HVAC server's in-flight-fetch table where a waiter only
    wants the completion record of *its* file.
    """

    def get(self, filt: Optional[Callable[[Any], bool]] = None) -> _FilterStoreGet:  # type: ignore[override]
        evt = _FilterStoreGet(self, filt or _accept_any)
        self._gets.append(evt)
        self._settle()
        return evt

    def _do_get(self, evt: _FilterStoreGet) -> bool:  # type: ignore[override]
        for i, item in enumerate(self.items):
            if evt.filter(item):
                del self.items[i]
                evt.succeed(item)
                return True
        return False

    def _settle(self) -> None:
        # Filtered gets can't use strict head-of-line matching: scan all
        # waiting gets each round so a match deeper in the queue is served.
        progressed = True
        while progressed:
            progressed = False
            if self._puts and self._do_put(self._puts[0]):
                self._puts.popleft()
                progressed = True
            for evt in list(self._gets):
                if self._do_get(evt):
                    self._gets.remove(evt)
                    progressed = True
