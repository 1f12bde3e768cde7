"""I/O tracing and trace replay on the sim clock."""

from .replay import ReplayResult, replay_trace
from .tracing import TraceLog, TraceRecord, TracingBackend

__all__ = [
    "replay_trace",
    "ReplayResult",
    "TraceLog",
    "TraceRecord",
    "TracingBackend",
]
