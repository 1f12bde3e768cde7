"""I/O tracing on the sim clock."""

from .tracing import TraceLog, TraceRecord, TracingBackend

__all__ = [
    "TraceLog",
    "TraceRecord",
    "TracingBackend",
]
