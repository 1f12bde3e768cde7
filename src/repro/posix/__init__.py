"""Virtual POSIX layer, I/O tracing and trace replay on the sim clock."""

from .replay import ReplayResult, replay_trace
from .tracing import TraceLog, TraceRecord, TracingBackend
from .vfs import MountTable, Namespace, PosixError, ProcessView

__all__ = [
    "MountTable",
    "Namespace",
    "PosixError",
    "ProcessView",
    "replay_trace",
    "ReplayResult",
    "TraceLog",
    "TraceRecord",
    "TracingBackend",
]
