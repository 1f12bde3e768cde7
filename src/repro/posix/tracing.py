"""I/O call tracing — the profiling HVAC was first built for (§III-F).

    "For the initial prototype, HVAC is used to profile the read calls
    from the DL frameworks like PyTorch and Horovod, to understand how
    the data loaders within the frameworks access the files."

:class:`TracingBackend` wraps any :class:`FileBackend` and records every
``open/read/close`` with timestamps, sizes, and latencies — a
Darshan-like per-process trace.  :meth:`TraceLog.summary` reproduces the
paper's profiling conclusion for a loader: whole-file single-read
transactions (one open, one read covering the file, one close), which is
the pattern that makes interception viable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from ..simcore import Environment
from ..storage.base import FileBackend, OpenFile

__all__ = ["TraceRecord", "TraceLog", "TracingBackend"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced POSIX call."""

    op: str  # "open" | "read" | "close"
    path: str
    start: float
    duration: float
    nbytes: int = 0


@dataclass
class TraceLog:
    """Accumulated trace of one backend."""

    records: list[TraceRecord] = field(default_factory=list)

    def add(self, record: TraceRecord) -> None:
        self.records.append(record)

    def ops(self, op: str) -> list[TraceRecord]:
        return [r for r in self.records if r.op == op]

    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self.records if r.op == "read")

    def latencies(self, op: str) -> np.ndarray:
        return np.asarray([r.duration for r in self.ops(op)], dtype=float)

    def summary(self) -> dict:
        """Per-op counts, byte totals and latency stats."""
        out: dict = {"total_bytes": self.total_bytes}
        for op in ("open", "read", "close"):
            lats = self.latencies(op)
            out[op] = {
                "count": int(lats.size),
                "mean_latency": float(lats.mean()) if lats.size else 0.0,
                "p99_latency": float(np.percentile(lats, 99)) if lats.size else 0.0,
            }
        return out

    def is_whole_file_single_read_pattern(self) -> bool:
        """The §III-F finding: one open, ONE read per file, one close —
        the access shape that makes LD_PRELOAD interception sufficient."""
        opens = self.ops("open")
        reads = self.ops("read")
        closes = self.ops("close")
        if not opens or len(opens) != len(closes):
            return False
        reads_per_path: dict[str, int] = {}
        for r in reads:
            reads_per_path[r.path] = reads_per_path.get(r.path, 0) + 1
        opens_per_path: dict[str, int] = {}
        for r in opens:
            opens_per_path[r.path] = opens_per_path.get(r.path, 0) + 1
        return all(
            reads_per_path.get(path, 0) == count
            for path, count in opens_per_path.items()
        )


class TracingBackend(FileBackend):
    """Transparent tracing wrapper around any storage backend."""

    def __init__(self, env: Environment, inner: FileBackend):
        self.env = env
        self.inner = inner
        self.log = TraceLog()

    def open(self, path: str, size: int, client_node: int) -> Generator:
        t0 = self.env.now
        handle = yield from self.inner.open(path, size, client_node)
        self.log.add(TraceRecord("open", path, t0, self.env.now - t0))
        # Re-home the handle so read/close flow back through the tracer.
        return _TracedHandle(handle)

    def read(self, handle: "OpenFile", nbytes: int) -> Generator:
        inner_handle = handle.inner if isinstance(handle, _TracedHandle) else handle
        t0 = self.env.now
        got = yield from self.inner.read(inner_handle, nbytes)
        self.log.add(TraceRecord("read", inner_handle.path, t0, self.env.now - t0, got))
        if isinstance(handle, _TracedHandle):
            handle.offset = inner_handle.offset
        return got

    def close(self, handle: "OpenFile") -> Generator:
        inner_handle = handle.inner if isinstance(handle, _TracedHandle) else handle
        t0 = self.env.now
        yield from self.inner.close(inner_handle)
        self.log.add(TraceRecord("close", inner_handle.path, t0, self.env.now - t0))
        if isinstance(handle, _TracedHandle):
            handle.closed = True


class _TracedHandle(OpenFile):
    """An OpenFile that routes operations back through the tracer."""

    def __init__(self, inner: OpenFile):
        super().__init__(
            path=inner.path,
            size=inner.size,
            client_node=inner.client_node,
            offset=inner.offset,
        )
        self.inner = inner
