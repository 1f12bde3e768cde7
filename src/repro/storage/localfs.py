"""XFS-on-NVMe: the node-local filesystem backend.

This is the paper's upper I/O bound: the whole dataset staged onto each
node's NVMe before training, every read served locally (§IV-A3,
"XFS-on-NVMe").  Staging is accounted for by the caller, so this
backend is the read path only: every ``<open, read, close>`` pays the
device's open/close and read costs.

Each node gets its own :class:`LocalFS` instance over that node's
:class:`~repro.cluster.nvme.NVMeDevice`; cross-node access is a bug by
construction (local filesystems aren't shared), enforced here.
"""

from __future__ import annotations

from typing import Generator

from ..cluster.nvme import NVMeDevice
from ..simcore import Environment
from .base import FileBackend, OpenFile

__all__ = ["LocalFS"]


class LocalFS(FileBackend):
    """An XFS filesystem on one node's NVMe."""

    def __init__(self, env: Environment, node_id: int, device: NVMeDevice):
        self.env = env
        self.node_id = node_id
        self.device = device
        self.metrics = env.metrics
        self._scope = self.metrics.scope(f"localfs{node_id}")

    def open(self, path: str, size: int, client_node: int) -> Generator:
        if client_node != self.node_id:
            raise ValueError(
                f"node {client_node} cannot open local file on node {self.node_id}"
            )
        yield from self.device.open_close()
        return OpenFile(path=path, size=size, client_node=client_node)

    def read(self, handle: OpenFile, nbytes: int) -> Generator:
        if handle.closed:
            raise ValueError(f"read on closed handle {handle.path}")
        nbytes = min(nbytes, handle.size - handle.offset)
        if nbytes <= 0:
            return 0
        yield from self.device.read(nbytes)
        handle.offset += nbytes
        self._scope.counter("reads").incr()
        return nbytes

    def close(self, handle: OpenFile) -> Generator:
        if handle.closed:
            raise ValueError(f"double close of {handle.path}")
        handle.closed = True
        # open_close() charged the full pair at open; close is free.
        return
        yield  # pragma: no cover — makes this a generator
