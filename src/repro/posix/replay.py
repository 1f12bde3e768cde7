"""Trace replay: re-run a recorded I/O trace against another backend.

The what-if companion to :mod:`.tracing`: record a loader's trace once
(e.g. on GPFS), then replay the identical request stream against HVAC
or XFS and compare — the same methodology storage papers use with
Darshan traces, here driven entirely inside the simulation.

Replay preserves the trace's *think time*: gaps between consecutive
calls that the original application spent computing are reproduced as
delays, so a faster backend shows up as a shorter total, not merely as
the sum of faster calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..simcore import Environment
from ..storage.base import FileBackend
from .tracing import TraceLog

__all__ = ["ReplayResult", "replay_trace"]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one replay."""

    system_label: str
    elapsed: float
    io_time: float
    think_time: float
    n_transactions: int


def replay_trace(
    env: Environment,
    log: TraceLog,
    backend: FileBackend,
    client_node: int = 0,
    system_label: str = "replay",
    preserve_think_time: bool = True,
) -> ReplayResult:
    """Replay ``log``'s open/read/close stream against ``backend``.

    Sizes come from the recorded reads; a file whose trace shows no read
    is replayed as a zero-byte transaction.
    """
    # Reconstruct per-path transaction sizes from the recorded reads.
    sizes: dict[str, int] = {}
    for record in log.records:
        if record.op == "read":
            sizes[record.path] = sizes.get(record.path, 0) + record.nbytes

    opens = log.ops("open")
    io_time = 0.0
    think_time = 0.0

    def driver() -> Generator:
        nonlocal io_time, think_time
        prev_end = None
        for record in opens:
            if preserve_think_time and prev_end is not None:
                gap = record.start - prev_end
                if gap > 0:
                    think_time += gap
                    yield env.timeout(gap)
            size = sizes.get(record.path, 0)
            t0 = env.now
            handle = yield from backend.open(record.path, size, client_node)
            if size:
                yield from backend.read(handle, size)
            yield from backend.close(handle)
            io_time += env.now - t0
            prev_end = record.start + record.duration  # trace-time cursor

    t0 = env.now
    env.run(env.process(driver(), name="replay"))
    return ReplayResult(
        system_label=system_label,
        elapsed=env.now - t0,
        io_time=io_time,
        think_time=think_time,
        n_transactions=len(opens),
    )
