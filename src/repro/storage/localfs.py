"""XFS-on-NVMe: the node-local filesystem backend.

This is the paper's upper I/O bound: the whole dataset staged onto each
node's NVMe before training, every read served locally (§IV-A3,
"XFS-on-NVMe").  It is also the layer HVAC servers use underneath their
cache directory.

Each node gets its own :class:`LocalFS` instance over that node's
:class:`~repro.cluster.nvme.NVMeDevice`; cross-node access is a bug by
construction (local filesystems aren't shared), enforced here.
"""

from __future__ import annotations

from typing import Generator

from ..cluster.nvme import NVMeDevice
from ..simcore import Environment
from .base import FileBackend, FileNotCached, OpenFile

__all__ = ["LocalFS"]


class LocalFS(FileBackend):
    """An XFS filesystem on one node's NVMe."""

    def __init__(
        self,
        env: Environment,
        node_id: int,
        device: NVMeDevice,
        track_namespace: bool = True,
    ):
        self.env = env
        self.node_id = node_id
        self.device = device
        self.metrics = env.metrics
        self._scope = self.metrics.scope(f"localfs{node_id}")
        #: path -> size; ``track_namespace=False`` skips bookkeeping for
        #: workloads that pre-declare staging (saves memory at scale).
        self.track_namespace = track_namespace
        self._files: dict[str, int] = {}

    # -- namespace --------------------------------------------------------
    def contains(self, path: str) -> bool:
        return path in self._files

    def file_size(self, path: str) -> int:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotCached(path) from None

    @property
    def n_files(self) -> int:
        return len(self._files)

    @property
    def used_bytes(self) -> int:
        return self.device.used_bytes

    def write_file(self, path: str, size: int) -> Generator:
        """Create ``path`` (used by dataset staging and HVAC cache fill)."""
        if self.track_namespace and path in self._files:
            # Overwrite: release old allocation first.
            self.device.release(self._files.pop(path))
        self.device.allocate(size)
        yield from self.device.write(size)
        if self.track_namespace:
            self._files[path] = size
        self._scope.counter("files_written").incr()

    def delete_file(self, path: str) -> None:
        """Remove ``path`` and free its space (instant metadata op)."""
        size = self._files.pop(path, None)
        if size is None:
            raise FileNotCached(path)
        self.device.release(size)

    # -- FileBackend --------------------------------------------------------
    def open(self, path: str, size: int, client_node: int) -> Generator:
        if client_node != self.node_id:
            raise ValueError(
                f"node {client_node} cannot open local file on node {self.node_id}"
            )
        if self.track_namespace and path not in self._files:
            raise FileNotCached(path)
        yield from self.device.open_close()
        return OpenFile(path=path, size=size, backend=self, client_node=client_node)

    def read(self, handle: OpenFile, nbytes: int) -> Generator:
        if handle.closed:
            raise ValueError(f"read on closed handle {handle.path}")
        nbytes = min(nbytes, handle.size - handle.offset)
        if nbytes <= 0:
            return 0
        t0 = self.env.now
        yield from self.device.read(nbytes)
        handle.offset += nbytes
        self._scope.counter("reads").incr()
        self._scope.tally("read_seconds").add(self.env.now - t0)
        return nbytes

    def close(self, handle: OpenFile) -> Generator:
        if handle.closed:
            raise ValueError(f"double close of {handle.path}")
        handle.closed = True
        # open_close() charged the full pair at open; close is free.
        return
        yield  # pragma: no cover — makes this a generator
