"""Node-local NVMe device model.

A device is a bounded-queue-depth server: each I/O request occupies one
of ``queue_depth`` slots for ``latency + size / bandwidth`` seconds.
Reads and writes share the queue (as on real NVMe) but use their own
latency/bandwidth constants.  Capacity accounting is exposed so the
HVAC cache manager and the XFS staging baseline can both allocate space
and hit ENOSPC-like conditions deterministically.

Methods that take simulated time are generators; callers compose them
with ``yield from`` or wrap them in ``env.process``.
"""

from __future__ import annotations

from typing import Generator

from ..simcore import Environment, Resource
from .specs import NVMeSpec

__all__ = ["NVMeDevice", "DeviceFull"]


class DeviceFull(Exception):
    """Allocation would exceed device capacity."""

    def __init__(self, requested: int, free: int):
        super().__init__(f"requested {requested} bytes, {free} free")
        self.requested = requested
        self.free = free


class NVMeDevice:
    """One NVMe SSD attached to one compute node."""

    def __init__(self, env: Environment, spec: NVMeSpec, name: str = "nvme"):
        self.env = env
        self.spec = spec
        self.name = name
        self.metrics = env.metrics
        # All counters live under the device's own dotted scope
        # (``nvme.reads``, ``nvme.writes``, ...).
        self._scope = self.metrics.scope(name)
        self._queue = Resource(env, capacity=spec.queue_depth)
        # Media/bus bandwidth: command latencies overlap across the
        # queue, but data transfers share the device's rated bandwidth —
        # a capacity-1 server held for size/bandwidth per request.
        # Without this, QD concurrent requests would each see the full
        # rated bandwidth (QD× overdelivery).
        self._bandwidth = Resource(env, capacity=1)
        self._used_bytes = 0
        # Gray-failure hook: a degraded device serves at 1/factor of its
        # rated bandwidth with factor x latency (worn flash, thermal
        # throttling, a dying controller) without ever failing outright.
        self._slow_factor = 1.0

    # -- capacity accounting ------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        return self.spec.capacity_bytes - self._used_bytes

    def allocate(self, nbytes: int) -> None:
        """Reserve space (instantaneous bookkeeping; raises when full)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes > self.free_bytes:
            raise DeviceFull(nbytes, self.free_bytes)
        self._used_bytes += nbytes

    def release(self, nbytes: int) -> None:
        """Return previously allocated space."""
        if nbytes < 0 or nbytes > self._used_bytes:
            raise ValueError(f"invalid release of {nbytes} (used={self._used_bytes})")
        self._used_bytes -= nbytes

    # -- gray failures --------------------------------------------------
    @property
    def slow_factor(self) -> float:
        return self._slow_factor

    def degrade(self, factor: float) -> None:
        """Throttle the device to ``1/factor`` of rated bandwidth (§III-H
        gray failure: the server stays up but every I/O slows down)."""
        if not factor >= 1.0:
            raise ValueError("degradation factor must be >= 1")
        self._slow_factor = float(factor)
        self._scope.counter("degradations").incr()

    def restore(self) -> None:
        """Return the device to rated performance."""
        self._slow_factor = 1.0

    # -- timed I/O ------------------------------------------------------
    def read(self, nbytes: int) -> Generator:
        """Read ``nbytes``; occupies a queue slot for the service time."""
        yield from self._io(nbytes, self.spec.read_latency, self.spec.read_bandwidth)
        self._scope.counter("reads").incr()

    def write(self, nbytes: int) -> Generator:
        """Write ``nbytes`` (no implicit allocation — caller accounts)."""
        yield from self._io(nbytes, self.spec.write_latency, self.spec.write_bandwidth)
        self._scope.counter("writes").incr()

    def open_close(self) -> Generator:
        """The filesystem (XFS) cost of an open+close pair."""
        yield self.spec.fs_open_close_latency

    def _io(self, nbytes: int, latency: float, bandwidth: float) -> Generator:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        with (yield self._queue):
            yield latency * self._slow_factor
            with (yield self._bandwidth):
                yield nbytes * self._slow_factor / bandwidth
