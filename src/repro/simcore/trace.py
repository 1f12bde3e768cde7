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

Observing is pay-for-what-you-use: with no observer attached the
engine's hot path costs one flag test per event.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Optional

__all__ = ["EventRecord", "EventTrace", "event_label"]


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
        "count", "checkpoints", "records", "_h",
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

    def begin_event(
        self, time: float, priority: int, seq: int, label: str
    ) -> None:
        """Fold one fired event into the fingerprint (observer hook)."""
        # repr() of the float keeps full precision, so two runs whose
        # clocks differ by one ulp still diverge — that is the point.
        self._h.update(f"{time!r}|{priority}|{seq}|{label}\n".encode())
        if self.keep_all or (
            self.keep_window is not None
            and self.keep_window[0] <= self.count < self.keep_window[1]
        ):
            self.records.append(
                EventRecord(self.count, time, priority, seq, label)
            )
        self.count += 1
        if self.checkpoint_every and self.count % self.checkpoint_every == 0:
            self.checkpoints.append(self._h.copy().hexdigest())

    @property
    def fingerprint(self) -> str:
        """Hex digest over every event recorded so far."""
        return self._h.copy().hexdigest()

    def __repr__(self) -> str:
        return f"<EventTrace {self.count} events {self.fingerprint[:12]}…>"
