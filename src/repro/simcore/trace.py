"""Opt-in event-stream fingerprinting for determinism checks.

Every claim this reproduction makes (epoch-time ratios, failover cost,
the Fig-14 "SGD shuffle untouched" property) rests on the engine's
bit-for-bit determinism.  An :class:`EventTrace` is a kernel observer
(``env.observe(trace)``): its ``begin_event`` hook sees every event the
kernel fires — as the tuple ``(time, priority, seq, label)`` — and
folds it into a rolling hash.  Two runs of the same experiment with the
same seed must produce identical fingerprints; if they do not, the
divergence bisector (:mod:`repro.check.divergence`) uses the trace's
periodic checkpoints to narrow the difference down to a block, then a
record-retaining re-run to print the first divergent event.

The fold is buffered: each event appends one line to a short buffer,
and the buffer is hashed in one ``update`` once it holds 1,024 lines,
at every checkpoint, and whenever :attr:`EventTrace.fingerprint` is
read.  Reading ``fingerprint`` or taking a checkpoint therefore always
flushes the buffer first, and the digest is byte-identical to one
``update`` per event: BLAKE2b over a concatenation does not depend on
how the bytes were split across updates.

Observing is pay-for-what-you-use: with no observer attached the
engine's hot path costs one flag test per event, and a trace takes no
``note_schedule`` calls, so it adds nothing at the scheduling sites.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Optional

__all__ = ["EventRecord", "EventTrace", "event_label"]

#: Lines an :class:`EventTrace` buffers before it hashes them.
_FLUSH_LINES = 1024


def event_label(event) -> str:
    """The label both the fingerprint and the race sanitizer key on:
    the event's type, plus the process name for Process events."""
    cls = type(event).__name__
    if cls == "Process":
        # perf: waive PERF103 -- only called under the engine's observed flag, never on a bare run
        return f"Process:{event.name}"
    return cls


class EventRecord(NamedTuple):
    """One observed kernel event (in firing order)."""

    index: int  #: 0-based position in the event stream
    time: float  #: simulated time the event fired at
    priority: int  #: URGENT/NORMAL scheduling priority
    seq: int  #: the kernel's global tie-break sequence number
    label: str  #: event type, plus process name for Process events

    def describe(self) -> str:
        return (
            f"#{self.index}  t={self.time!r}  prio={self.priority}  "
            f"seq={self.seq}  {self.label}"
        )


class EventTrace:
    """Rolling fingerprint (and optional recording) of an event stream.

    Parameters
    ----------
    checkpoint_every:
        If > 0, snapshot the running fingerprint every that-many events
        into :attr:`checkpoints` — the bisector's coarse index.
    keep_window:
        ``(lo, hi)`` half-open index range of records to retain in
        :attr:`records` (the bisector's fine pass).  ``None`` keeps none.
    keep_all:
        Retain every record (small experiments / debugging).
    """

    __slots__ = (
        "checkpoint_every", "keep_window", "keep_all",
        "count", "checkpoints", "records",
        "_h", "_lines", "_stop", "_time", "_stamp",
    )

    def __init__(
        self,
        checkpoint_every: int = 0,
        keep_window: Optional[tuple[int, int]] = None,
        keep_all: bool = False,
    ):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.checkpoint_every = checkpoint_every
        self.keep_window = keep_window
        self.keep_all = keep_all
        self.count = 0
        self.checkpoints: list[str] = []
        self.records: list[EventRecord] = []
        self._h = hashlib.blake2b(digest_size=16)
        #: folded lines not yet hashed
        self._lines: list[str] = []
        #: the next count at which to record, checkpoint or hash
        self._stop = self._next_stop()
        #: the last time folded (the very float object) and its repr
        self._time: Optional[float] = None
        self._stamp = ""

    def begin_event(
        self, time: float, priority: int, seq: int, label: str
    ) -> None:
        """Fold one fired event into the fingerprint (observer hook)."""
        # repr() of the float keeps full precision, so two runs whose
        # clocks differ by one ulp still diverge — that is the point.
        # Every event taken off a lane passes the same `env._now`
        # object, so its repr is reused rather than rebuilt.
        if time is not self._time:
            self._time = time
            self._stamp = repr(time)
        self._lines.append(f"{self._stamp}|{priority}|{seq}|{label}\n")
        self.count = count = self.count + 1
        if count == self._stop:
            self._reach_stop(time, priority, seq, label)

    def _reach_stop(
        self, time: float, priority: int, seq: int, label: str
    ) -> None:
        """Record, checkpoint or hash as the event just folded calls for."""
        index = self.count - 1
        window = self.keep_window
        if self.keep_all or (window is not None and window[0] <= index < window[1]):
            self.records.append(EventRecord(index, time, priority, seq, label))
        every = self.checkpoint_every
        if every and self.count % every == 0:
            self.checkpoints.append(self.fingerprint)
        elif len(self._lines) >= _FLUSH_LINES:
            self._flush()
        self._stop = self._next_stop()

    def _next_stop(self) -> int:
        """The first count past the current one that needs
        :meth:`_reach_stop`: a record to keep, a checkpoint, or a full
        buffer."""
        count = self.count
        if self.keep_all:
            return count + 1
        stop = count + _FLUSH_LINES - len(self._lines)
        every = self.checkpoint_every
        if every:
            stop = min(stop, count - count % every + every)
        window = self.keep_window
        if window is not None:
            index = max(count, window[0])
            if index < window[1]:
                stop = min(stop, index + 1)
        return stop

    def _flush(self) -> None:
        # One update over the joined lines digests the same bytes as one
        # update per line.
        self._h.update("".join(self._lines).encode())
        self._lines.clear()

    @property
    def fingerprint(self) -> str:
        """Hex digest over every event recorded so far."""
        self._flush()
        return self._h.copy().hexdigest()

    def __repr__(self) -> str:
        return f"<EventTrace {self.count} events {self.fingerprint[:12]}…>"
