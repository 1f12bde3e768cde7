"""Message-queue primitive: the FIFO store.

The HVAC server's *shared FIFO queue* (paper §III-C/D: every server
spawns a data-mover thread draining a mutex-protected FIFO of forwarded
file I/O operations) is modelled with :class:`Store`; it is the only
store in the model (one per server).  The store is unbounded, so a put
never waits: it succeeds at once and hands its item to the oldest
waiting getter, or queues it when no getter waits.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .engine import _PENDING, Environment, Event

__all__ = ["Store"]


class _StorePut(Event):
    """A put's completion event.  A plain :class:`Event` would do, but
    the event stream fingerprint records each event's type name."""

    __slots__ = ()


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
    """Unbounded FIFO store of arbitrary items."""

    def __init__(self, env: Environment):
        self.env = env
        # Deques, not lists: every server data-mover pops the head once
        # per forwarded I/O, and list.pop(0) is O(n) per event (PERF105).
        # Items and waiting getters are never both non-empty.
        self.items: deque = deque()
        self._gets: deque[_StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> _StorePut:
        """Insert ``item``; the returned event triggers at once."""
        evt = _StorePut(self.env)
        evt.succeed()
        if self._gets:
            self._gets.popleft().succeed(item)
        else:
            self.items.append(item)
        return evt

    def get(self) -> _StoreGet:
        """Remove and return the oldest item (event-valued)."""
        evt = _StoreGet(self)
        if self.items:
            evt.succeed(self.items.popleft())
        else:
            self._gets.append(evt)
        return evt
