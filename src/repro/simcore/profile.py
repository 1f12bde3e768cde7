"""Deterministic sim-time profiler: event/handler attribution per component.

The hot-set ranking behind ``repro check --passes perf`` is *measured*, not
guessed: attach a :class:`SimProfiler` to an
:class:`~repro.simcore.Environment` with ``env.observe(profiler)`` and
every fired event is attributed to a **component** — its
:func:`~repro.simcore.trace.event_label` with digit runs collapsed
(``Process:hvac3.svc`` → ``Process:hvac#.svc``) so per-entity instances
aggregate.

Deterministic by construction: the profiler counts kernel quantities
only (events fired, callbacks run, child events scheduled) and reads
only simulated time — no wall clock, no RNG — so a same-seed double run
produces bit-identical attribution.  It implements the same observer
protocol as the trace and the race sanitizer and is pay-for-what-you-use:
detached, it costs one flag check per event.
"""

from __future__ import annotations

import re
from typing import Optional

__all__ = ["ComponentProfile", "SimProfiler"]

_DIGIT_RUNS = re.compile(r"\d+")


def _rank(c: "ComponentProfile") -> tuple[int, str]:
    """Sort key: most events first, ties broken by component name."""
    return (-c.events, c.component)


class ComponentProfile:
    """Aggregated kernel counters for one digit-normalized event label."""

    __slots__ = (
        "component", "events", "callbacks", "scheduled",
        "first_time", "last_time",
    )

    def __init__(self, component: str):
        self.component = component
        self.events = 0
        self.callbacks = 0
        self.scheduled = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "component": self.component,
            "events": self.events,
            "callbacks": self.callbacks,
            "scheduled": self.scheduled,
            "first_time": self.first_time,
            "last_time": self.last_time,
        }


class SimProfiler:
    """Attributes per-component event counts and handler costs.

    The observer protocol it implements (see
    :meth:`~repro.simcore.Environment.observe`):

    * :meth:`begin_event` — called as an event is popped;
    * :meth:`note_schedule` — called for every event pushed while the
      current event's callbacks run (its *children*);
    * :meth:`end_event` — called after the callbacks ran, with how many
      there were.
    """

    __slots__ = (
        "components", "total_events", "total_callbacks", "total_scheduled",
        "_labels", "_current",
    )

    def __init__(self):
        self.components: dict[str, ComponentProfile] = {}
        self.total_events = 0
        self.total_callbacks = 0
        self.total_scheduled = 0
        # Raw-label memo: normalization runs once per distinct label.
        self._labels: dict[str, ComponentProfile] = {}
        self._current: Optional[ComponentProfile] = None

    # -- engine hook ---------------------------------------------------
    def begin_event(
        self, time: float, priority: int, seq: int, label: str
    ) -> None:
        comp = self._labels.get(label)
        if comp is None:
            key = _DIGIT_RUNS.sub("#", label)
            comp = self.components.get(key)
            if comp is None:
                comp = self.components[key] = ComponentProfile(key)
            self._labels[label] = comp
        comp.events += 1
        if comp.first_time is None:
            comp.first_time = time
        comp.last_time = time
        self.total_events += 1
        self._current = comp

    def note_schedule(self, seq: int, delay: float) -> None:
        self.total_scheduled += 1
        comp = self._current
        if comp is not None:
            comp.scheduled += 1

    def end_event(self, n_callbacks: int) -> None:
        comp = self._current
        if comp is not None:
            comp.callbacks += n_callbacks
            self.total_callbacks += n_callbacks
            self._current = None

    # -- reporting -----------------------------------------------------
    def top(self, n: int = 10) -> list[ComponentProfile]:
        """Components ranked by events fired (ties broken by name)."""
        ranked = sorted(self.components.values(), key=_rank)
        return ranked[:n]

    def as_dict(self) -> dict:
        """Stable, JSON-able attribution — the determinism-test key."""
        return {
            "total_events": self.total_events,
            "total_callbacks": self.total_callbacks,
            "total_scheduled": self.total_scheduled,
            "components": [
                c.as_dict()
                for c in sorted(self.components.values(), key=_rank)
            ],
        }

    def describe(self) -> str:
        """The 15 busiest components and the totals, as a text table."""
        lines = [
            f"{'component':<36} {'events':>8} {'callbacks':>10} "
            f"{'scheduled':>10}",
        ]
        for c in self.top(15):
            lines.append(
                f"{c.component:<36} {c.events:>8} {c.callbacks:>10} "
                f"{c.scheduled:>10}"
            )
        lines.append(
            f"{'TOTAL':<36} {self.total_events:>8} "
            f"{self.total_callbacks:>10} {self.total_scheduled:>10}"
        )
        return "\n".join(lines)
