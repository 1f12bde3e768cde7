"""Virtual POSIX layer: namespace, mount table, per-process file API.

The DL frameworks in the paper (PyTorch + Horovod data loaders) issue
plain POSIX ``<open, read, close>`` against dataset paths (§III-F).  In
the reproduction those calls land here: a :class:`ProcessView` gives
each simulated application process a file-descriptor table and resolves
paths through a :class:`MountTable` to whichever backend (GPFS, local
XFS, HVAC) owns the prefix — exactly the role the VFS plays under a
real libc.  HVAC's ``LD_PRELOAD`` redirection over real files is
:func:`repro.runtime.client.interposed_open`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..simcore import Environment
from ..storage.base import FileBackend, OpenFile

__all__ = ["Namespace", "MountTable", "ProcessView", "PosixError"]


class PosixError(Exception):
    """ENOENT/EBADF-style failures from the virtual syscall layer."""


class Namespace:
    """Global file metadata: path → size.

    Populated when a dataset is "created" on the PFS.  Real metadata
    *performance* is charged by the storage backends; this object is the
    ground truth those backends are assumed to agree on.
    """

    def __init__(self):
        self._sizes: dict[str, int] = {}

    def add_file(self, path: str, size: int) -> None:
        if size < 0:
            raise ValueError("size must be >= 0")
        self._sizes[path] = size

    def add_files(self, paths, sizes) -> None:
        for path, size in zip(paths, sizes):
            self.add_file(path, int(size))

    def remove_file(self, path: str) -> None:
        if self._sizes.pop(path, None) is None:
            raise PosixError(f"ENOENT: {path}")

    def exists(self, path: str) -> bool:
        return path in self._sizes

    def size_of(self, path: str) -> int:
        try:
            return self._sizes[path]
        except KeyError:
            raise PosixError(f"ENOENT: {path}") from None

    def __len__(self) -> int:
        return len(self._sizes)


@dataclass(frozen=True)
class _Mount:
    prefix: str
    backend: FileBackend


class MountTable:
    """Longest-prefix-match path → backend resolution."""

    def __init__(self):
        self._mounts: list[_Mount] = []

    def mount(self, prefix: str, backend: FileBackend) -> None:
        if not prefix.startswith("/"):
            raise ValueError("mount prefix must be absolute")
        prefix = prefix.rstrip("/") or "/"
        if any(m.prefix == prefix for m in self._mounts):
            raise ValueError(f"{prefix} already mounted")
        self._mounts.append(_Mount(prefix, backend))
        self._mounts.sort(key=lambda m: len(m.prefix), reverse=True)

    def unmount(self, prefix: str) -> None:
        prefix = prefix.rstrip("/") or "/"
        for i, m in enumerate(self._mounts):
            if m.prefix == prefix:
                del self._mounts[i]
                return
        raise ValueError(f"{prefix} is not mounted")

    def resolve(self, path: str) -> FileBackend:
        for m in self._mounts:
            if path == m.prefix or path.startswith(
                m.prefix if m.prefix == "/" else m.prefix + "/"
            ):
                return m.backend
        raise PosixError(f"ENOENT: no mount covers {path}")

    @property
    def mounts(self) -> list[tuple[str, FileBackend]]:
        return [(m.prefix, m.backend) for m in self._mounts]


class ProcessView:
    """One application process's POSIX interface (fd table included)."""

    def __init__(
        self,
        env: Environment,
        namespace: Namespace,
        mounts: MountTable,
        node_id: int,
    ):
        self.env = env
        self.namespace = namespace
        self.mounts = mounts
        self.node_id = node_id
        self._fds: dict[int, OpenFile] = {}
        self._next_fd = 3  # 0-2 are stdio, as tradition demands

    # -- syscalls ---------------------------------------------------------
    def open(self, path: str) -> Generator:
        """``open(path, O_RDONLY)`` → fd (event-valued generator)."""
        size = self.namespace.size_of(path)
        backend = self.mounts.resolve(path)
        handle = yield from backend.open(path, size, self.node_id)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = handle
        return fd

    def read(self, fd: int, nbytes: Optional[int] = None) -> Generator:
        """``read(fd, n)``; ``n=None`` reads to EOF (the DL pattern)."""
        handle = self._handle(fd)
        if nbytes is None:
            nbytes = handle.size - handle.offset
        got = yield from handle.backend.read(handle, nbytes)
        return got

    def close(self, fd: int) -> Generator:
        handle = self._fds.pop(fd, None)
        if handle is None:
            raise PosixError(f"EBADF: {fd}")
        yield from handle.backend.close(handle)

    def stat(self, path: str) -> int:
        """Size lookup; free of simulated cost (client-side cache)."""
        return self.namespace.size_of(path)

    def read_file(self, path: str) -> Generator:
        """The whole-file open-read-close transaction, via the fd table."""
        fd = yield from self.open(path)
        got = yield from self.read(fd)
        yield from self.close(fd)
        return got

    # -- internals -----------------------------------------------------------
    def _handle(self, fd: int) -> OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise PosixError(f"EBADF: {fd}") from None

    @property
    def open_fds(self) -> int:
        return len(self._fds)
