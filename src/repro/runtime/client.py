"""Real-file HVAC client + deployment + ``open()`` interposer.

:class:`RuntimeDeployment` spins up N :class:`RuntimeServer` threads
over one "PFS" directory and hands out a :class:`RuntimeClient` that
redirects reads by the *same placement code the simulator uses*
(:class:`~repro.core.hashing.ModuloPlacement`) — one hash function, two
execution modes.

:func:`interposed_open` is the LD_PRELOAD stand-in for real Python
programs: inside the context manager, ``open(path, 'rb')`` for paths
under the dataset directory is transparently served from the HVAC
cache; everything else passes through to the original ``open``.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import os
import shutil
import tempfile
import threading
from typing import Iterator

from ..core.hashing import ModuloPlacement, Placement
from .server import RuntimeServer

__all__ = ["RuntimeClient", "RuntimeDeployment", "interposed_open"]


class RuntimeClient:
    """Hash-redirecting client over a set of runtime servers."""

    def __init__(self, servers: list[RuntimeServer], placement: Placement, pfs_dir: str):
        if len(servers) != placement.n_servers:
            raise ValueError("placement size must match server count")
        self.servers = servers
        self.placement = placement
        self.pfs_dir = os.path.abspath(pfs_dir)

    def _rel(self, path: str) -> str:
        apath = os.path.abspath(path)
        if not apath.startswith(self.pfs_dir + os.sep):
            raise ValueError(f"{path} is not under the dataset dir {self.pfs_dir}")
        return os.path.relpath(apath, self.pfs_dir)

    def read_file(self, path: str) -> bytes:
        """The whole-file transaction via the homed server."""
        rel = self._rel(path)
        server = self.servers[self.placement.home(rel)]
        return server.submit(rel).result()

    def open(self, path: str) -> io.BytesIO:
        """An in-memory file object over the cached bytes."""
        return io.BytesIO(self.read_file(path))


class RuntimeDeployment:
    """N server threads + a placement + client, over real directories."""

    def __init__(
        self,
        pfs_dir: str,
        n_servers: int = 2,
        capacity_bytes_per_server: int = 1 << 30,
        pfs_read_delay: float = 0.0,
    ):
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        self.pfs_dir = os.path.abspath(pfs_dir)
        if not os.path.isdir(self.pfs_dir):
            raise FileNotFoundError(self.pfs_dir)
        self.cache_root = tempfile.mkdtemp(prefix="hvac-cache-")
        self.servers = [
            RuntimeServer(
                server_id=i,
                pfs_dir=self.pfs_dir,
                cache_dir=os.path.join(self.cache_root, f"server{i}"),
                capacity_bytes=capacity_bytes_per_server,
                pfs_read_delay=pfs_read_delay,
            )
            for i in range(n_servers)
        ]
        self.placement = ModuloPlacement(n_servers)
        self.client = RuntimeClient(self.servers, self.placement, self.pfs_dir)

    # -- stats --------------------------------------------------------------
    @property
    def total_hits(self) -> int:
        return sum(s.stats.hits for s in self.servers)

    @property
    def total_misses(self) -> int:
        return sum(s.stats.misses for s in self.servers)

    @property
    def hit_rate(self) -> float:
        total = self.total_hits + self.total_misses
        return self.total_hits / total if total else 0.0

    def shutdown(self) -> None:
        """Stop all servers; the cache dies with the 'job' (§III-D)."""
        for server in self.servers:
            server.shutdown()
        shutil.rmtree(self.cache_root, ignore_errors=True)

    def __enter__(self) -> "RuntimeDeployment":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


_interpose_lock = threading.Lock()


@contextlib.contextmanager
def interposed_open(deployment: RuntimeDeployment) -> Iterator[RuntimeClient]:
    """Monkeypatch ``builtins.open`` to redirect dataset reads to HVAC.

    The Python-level equivalent of ``LD_PRELOAD=libhvac_client.so`` with
    ``HVAC_DATASET_DIR=<pfs_dir>``: read-mode opens under the dataset
    directory return cached bytes; every other open is untouched.  Only
    one interposition may be active at a time (nested shims are the
    LD_PRELOAD fragility HVAC avoids).
    """
    client = deployment.client
    prefix = deployment.pfs_dir + os.sep
    if not _interpose_lock.acquire(blocking=False):
        raise RuntimeError("another interposition is already active")
    original_open = builtins.open

    def hvac_open(file, mode="r", *args, **kwargs):
        try:
            is_path = isinstance(file, (str, os.PathLike))
            apath = os.path.abspath(os.fspath(file)) if is_path else ""
        except TypeError:
            is_path = False
            apath = ""
        if is_path and apath.startswith(prefix) and set(mode) <= {"r", "b"}:
            data = client.read_file(apath)
            if "b" in mode:
                return io.BytesIO(data)
            return io.StringIO(data.decode(kwargs.get("encoding") or "utf-8"))
        return original_open(file, mode, *args, **kwargs)

    builtins.open = hvac_open
    try:
        yield client
    finally:
        builtins.open = original_open
        _interpose_lock.release()
