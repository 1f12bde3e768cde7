"""Real-file HVAC server: a thread with a FIFO queue and a cache directory.

This is the *runtime* (non-simulated) mode: an executable, single-machine
analog of the HVAC server process.  Each server owns

* a **request queue** drained by a dedicated data-mover thread (the
  paper's architecture, §III-C);
* a **cache directory** standing in for the node-local NVMe;
* an **in-flight table** so concurrent first reads of one file trigger
  one PFS copy (the shared-queue mutex of §III-D);
* **eviction** under a byte budget, by the simulator's own
  :class:`~repro.core.cache.LRUEviction`, the safer choice for a real
  deployment than the prototype's random.

The "PFS" is any slow directory; an optional artificial per-read delay
makes cache effects visible in demos on fast local disks.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from queue import Queue

from ..core.cache import LRUEviction

__all__ = ["RuntimeServer", "ServerStats"]

# Bind the true builtin at import time: the interposer monkeypatches
# ``builtins.open``, and the server's own PFS/cache I/O must not recurse
# through the shim (a real LD_PRELOAD library dodges the same trap by
# calling dlsym(RTLD_NEXT, "open")).
_real_open = open


@dataclass
class ServerStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_served: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Shutdown:
    pass


_SHUTDOWN = _Shutdown()


class RuntimeServer:
    """One HVAC server instance over real directories."""

    def __init__(
        self,
        server_id: int,
        pfs_dir: str,
        cache_dir: str,
        capacity_bytes: int = 1 << 30,
        pfs_read_delay: float = 0.0,
    ):
        self._policy = LRUEviction()
        self.server_id = server_id
        self.pfs_dir = os.path.abspath(pfs_dir)
        self.cache_dir = os.path.abspath(cache_dir)
        self.capacity_bytes = capacity_bytes
        self.pfs_read_delay = pfs_read_delay
        self.stats = ServerStats()
        os.makedirs(self.cache_dir, exist_ok=True)
        self._queue: Queue = Queue()
        self._lock = threading.Lock()
        # path -> size of every cached file
        self._cached: dict[str, int] = {}
        self._used = 0
        # No separate in-flight table is needed here: the single mover
        # thread serializes this server's requests, so a duplicate
        # first-read simply becomes a hit when its turn comes.
        self._mover = threading.Thread(
            target=self._drain, name=f"hvac-mover-{server_id}", daemon=True
        )
        self._alive = True
        self._mover.start()

    # -- client-facing -----------------------------------------------------
    def submit(self, rel_path: str) -> Future:
        """Enqueue a read of ``rel_path`` (relative to the PFS dir)."""
        if not self._alive:
            raise RuntimeError(f"server {self.server_id} is shut down")
        fut: Future = Future()
        self._queue.put((rel_path, fut))
        return fut

    def shutdown(self) -> None:
        """Stop the mover and purge the cache directory."""
        if self._alive:
            self._alive = False
            self._queue.put((_SHUTDOWN, None))
            self._mover.join(timeout=10)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        with self._lock:
            self._cached.clear()
            self._used = 0

    # -- introspection --------------------------------------------------------
    @property
    def cached_files(self) -> int:
        with self._lock:
            return len(self._cached)

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used

    def contains(self, rel_path: str) -> bool:
        with self._lock:
            return rel_path in self._cached

    # -- the data-mover thread -----------------------------------------------
    def _drain(self) -> None:
        while True:
            item, fut = self._queue.get()
            if isinstance(item, _Shutdown):
                return
            try:
                data = self._serve(item)
                fut.set_result(data)
            except Exception as err:  # noqa: BLE001 — relay to the client
                fut.set_exception(err)

    def _cache_path(self, rel_path: str) -> str:
        # The cache mirrors the dataset tree, so two paths never share a
        # cache file.
        return os.path.join(self.cache_dir, rel_path)

    def _serve(self, rel_path: str) -> bytes:
        cpath = self._cache_path(rel_path)
        with self._lock:
            hit = rel_path in self._cached
            if hit:
                self._policy.on_access(rel_path)
        if hit:
            self.stats.hits += 1
            with _real_open(cpath, "rb") as fh:
                data = fh.read()
            self.stats.bytes_served += len(data)
            return data

        self.stats.misses += 1
        src = os.path.join(self.pfs_dir, rel_path)
        if self.pfs_read_delay > 0:
            time.sleep(self.pfs_read_delay)
        with _real_open(src, "rb") as fh:  # the PFS read
            data = fh.read()
        self._insert(rel_path, cpath, data)
        self.stats.bytes_served += len(data)
        return data

    def _insert(self, rel_path: str, cpath: str, data: bytes) -> None:
        size = len(data)
        if size > self.capacity_bytes:
            return  # uncacheable; served as passthrough
        with self._lock:
            while self._used + size > self.capacity_bytes:
                victim = self._policy.victim()
                if victim is None:
                    return  # the policy refuses (minio); served as passthrough
                self._policy.on_delete(victim)
                self._used -= self._cached.pop(victim)
                self.stats.evictions += 1
                try:
                    os.unlink(self._cache_path(victim))
                except FileNotFoundError:
                    pass
            # fs::copy(src, dst): write into the node-local cache dir.
            os.makedirs(os.path.dirname(cpath), exist_ok=True)
            with _real_open(cpath, "wb") as fh:
                fh.write(data)
            self._cached[rel_path] = size
            self._policy.on_insert(rel_path)
            self._used += size
