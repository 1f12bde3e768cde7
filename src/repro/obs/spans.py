"""Zero-wall-clock span tracing over the simulated clock.

A :class:`SpanRecorder` records *begin / end / annotate* events for each
logical operation as it crosses the stack — client ``read()`` → RPC
endpoint → server data mover → NVMe / GPFS — with parent/child links, so
one intercepted read yields a causal tree that includes its retries,
detector strikes, and PFS fallbacks.

Design constraints (these are the acceptance bar, not aspirations):

* **Hot-path cost is one ``list.append`` per event.**  No kernel events,
  no timeouts, no processes are ever created on behalf of a span, so
  attaching a recorder cannot change the event-stream fingerprint of an
  identically-seeded run with spans disabled.
* **Recording is deterministic** (simlint-clean): span ids come from a
  monotone counter and every recorded value derives from sim state, so
  two same-seed runs produce byte-identical timelines —
  :attr:`SpanRecorder.fingerprint` pins that property in tests.

Folding, JSONL export, and SLO aggregation all happen *after* the run,
off the hot path.  :meth:`SpanRecorder.fold` walks the log once and
keeps only the read-path spans the SLO rollup and the fuzz invariants
read (:data:`FOLDED`); :meth:`SpanRecorder.spans` assembles every span,
for the JSONL timeline dump and :meth:`SpanRecorder.named`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["FOLDED", "ReadSpan", "Span", "SpanFold", "SpanRecorder"]

_BEGIN, _END, _ANNOTATE = "B", "E", "A"


@dataclass(slots=True)
class Span:
    """One assembled span (post-run view of the flat event list).

    Slotted: assembly materializes one record per span, and big SLO
    runs assemble hundreds of thousands of them (PERF101)."""

    sid: int
    parent: Optional[int]
    name: str
    t0: float
    t1: Optional[float] = None  #: None while open (e.g. abandoned handler)
    status: str = "open"
    attrs: dict = field(default_factory=dict)
    #: time-ordered ``(t, key, value)`` annotations
    annotations: list = field(default_factory=list)
    children: list[int] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    @property
    def duration(self) -> float:
        return (self.t1 - self.t0) if self.t1 is not None else float("nan")

    def annotation(self, key: str, default=None):
        """Last value annotated under ``key`` (annotations can repeat)."""
        value = default
        for _, k, v in self.annotations:
            if k == key:
                value = v
        return value

    def to_json(self) -> str:
        return json.dumps(
            {
                "sid": self.sid,
                "parent": self.parent,
                "name": self.name,
                "t0": self.t0,
                "t1": self.t1,
                "status": self.status,
                "attrs": self.attrs,
                "annotations": [list(a) for a in self.annotations],
            },
            separators=(",", ":"),
        )


#: the span names :meth:`SpanRecorder.fold` keeps, one list each
FOLDED = ("client.read", "client.segment", "server.read")


@dataclass(slots=True)
class ReadSpan:
    """One read-path span, its annotations reduced as the log is folded.

    ``attrs`` is the dict the recorder logged, shared, not copied: read
    it, never write it."""

    sid: int
    name: str
    t0: float
    attrs: dict
    t1: Optional[float] = None  #: None while open
    #: ``strike`` annotations (one per failed attempt)
    strikes: int = 0
    #: a ``degraded`` annotation was recorded
    degraded: bool = False
    #: the last ``hit`` annotation (``server.read``)
    hit: int = 0
    #: ``bytes:<route>`` annotations summed per route, in first-seen order
    routed: dict = field(default_factory=dict)


@dataclass(slots=True)
class SpanFold:
    """A recorder's read-path spans, each list in begin (sid) order."""

    reads: list[ReadSpan] = field(default_factory=list)  #: ``client.read``
    segments: list[ReadSpan] = field(default_factory=list)  #: ``client.segment``
    server_reads: list[ReadSpan] = field(default_factory=list)  #: ``server.read``


class SpanRecorder:
    """Append-only span event log on the sim clock.

    The recorder is passive: callers pass the current ``env.now`` in, it
    never reads a clock or touches the kernel.  All methods are O(1).
    """

    __slots__ = ("events", "_next_id")

    def __init__(self):
        #: flat event list: ("B", sid, parent, t, name, attrs) |
        #: ("E", sid, t, status) | ("A", sid, t, key, value)
        self.events: list[tuple] = []
        self._next_id = 0

    # -- hot path -----------------------------------------------------------
    def begin(
        self, name: str, t: float, parent: Optional[int] = None,
        tenant: Optional[int] = None, **attrs
    ) -> int:
        """Open a span; returns its id (pass as ``parent`` to children).
        A ``tenant`` that is not None is the span's last attr."""
        sid = self._next_id
        self._next_id = sid + 1
        if tenant is not None:
            attrs["tenant"] = tenant
        self.events.append((_BEGIN, sid, parent, t, name, attrs))
        return sid

    def end(self, sid: int, t: float, status: str = "ok") -> None:
        self.events.append((_END, sid, t, status))

    def annotate(self, sid: int, t: float, key: str, value=None) -> None:
        self.events.append((_ANNOTATE, sid, t, key, value))

    # -- post-run views ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    @property
    def n_spans(self) -> int:
        return self._next_id

    def fold(self) -> SpanFold:
        """One walk of the log that builds only the :data:`FOLDED` spans.

        Every other span's begin, end and annotations are skipped, so
        the walk allocates one :class:`ReadSpan` per read-path span and
        nothing per event."""
        fold = SpanFold()
        lists = dict(zip(FOLDED, (fold.reads, fold.segments, fold.server_reads)))
        kept: dict[int, ReadSpan] = {}
        for ev in self.events:
            kind = ev[0]
            if kind == _BEGIN:
                out = lists.get(ev[4])
                if out is not None:
                    span = ReadSpan(ev[1], ev[4], ev[3], ev[5])
                    kept[ev[1]] = span
                    out.append(span)
                continue
            span = kept.get(ev[1])
            if span is None:
                continue
            if kind == _END:
                span.t1 = ev[2]
                continue
            key = ev[3]
            if key.startswith("bytes:"):
                route = key[6:]
                span.routed[route] = span.routed.get(route, 0) + int(ev[4])
            elif key == "strike":
                span.strikes += 1
            elif key == "degraded":
                span.degraded = True
            elif key == "hit":
                span.hit = ev[4]
        return fold

    def spans(self) -> dict[int, Span]:
        """Assemble the flat event list into linked :class:`Span`s."""
        out: dict[int, Span] = {}
        for ev in self.events:
            kind = ev[0]
            if kind == _BEGIN:
                _, sid, parent, t, name, attrs = ev
                out[sid] = Span(sid, parent, name, t, attrs=dict(attrs))
            elif kind == _END:
                _, sid, t, status = ev
                span = out.get(sid)
                if span is not None:
                    span.t1 = t
                    span.status = status
            else:
                _, sid, t, key, value = ev
                span = out.get(sid)
                if span is not None:
                    span.annotations.append((t, key, value))
        for span in out.values():
            if span.parent is not None and span.parent in out:
                out[span.parent].children.append(span.sid)
        return out

    def named(self, name: str) -> list[Span]:
        """All spans called ``name``, in begin order."""
        return [s for s in self.spans().values() if s.name == name]

    @property
    def fingerprint(self) -> str:
        """Hex digest over the full timeline — byte-identical across
        same-seed runs (the determinism test's comparison key).  Floats
        are folded via ``repr`` so one-ulp drifts still diverge."""
        h = hashlib.blake2b(digest_size=16)
        for ev in self.events:
            h.update("|".join(repr(x) for x in ev).encode())
            h.update(b"\n")
        return h.hexdigest()

    def to_jsonl_lines(self) -> Iterator[str]:
        """One JSON object per span, in span-id order (the timeline dump
        ``repro slo`` writes next to its dashboard)."""
        assembled = self.spans()
        for sid in sorted(assembled):
            yield assembled[sid].to_json()

    def write_jsonl(self, path: str) -> int:
        """Write the JSONL timeline to ``path``; returns spans written."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.to_jsonl_lines():
                fh.write(line + "\n")
                n += 1
        return n

    def __repr__(self) -> str:
        return f"<SpanRecorder {self.n_spans} spans, {len(self.events)} events>"
