"""Common storage interfaces.

Every storage backend (GPFS, XFS-on-NVMe, HVAC-backed mounts) exposes
the same transaction the paper measures everywhere: the POSIX
``<open, read, close>`` triple on whole files (§II-C: "both file type
I/Os follow a transaction comprising of <open-read-close> operations").

Backends are simulation objects; their methods are generators that take
simulated time.  ``client_node`` identifies which compute node issues
the I/O so per-node links and devices contend correctly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Generator

__all__ = ["FileBackend", "OpenFile"]


@dataclass(slots=True)
class OpenFile:
    """A live file handle returned by :meth:`FileBackend.open`.

    Slotted: one handle per intercepted <open, read, close> triple, so
    the epoch loop allocates these at event rate (PERF101)."""

    path: str
    size: int
    client_node: int
    offset: int = 0
    closed: bool = False


class FileBackend(abc.ABC):
    """Abstract open/read/close storage backend."""

    @abc.abstractmethod
    def open(self, path: str, size: int, client_node: int) -> Generator:
        """Open ``path``; returns an :class:`OpenFile` (event-valued)."""

    @abc.abstractmethod
    def read(self, handle: OpenFile, nbytes: int) -> Generator:
        """Read ``nbytes`` at the handle's offset; returns bytes read."""

    @abc.abstractmethod
    def close(self, handle: OpenFile) -> Generator:
        """Close the handle."""

    def read_file(self, path: str, size: int, client_node: int) -> Generator:
        """The canonical whole-file open-read-close transaction."""
        handle = yield from self.open(path, size, client_node)
        yield from self.read(handle, size)
        yield from self.close(handle)
        return size
