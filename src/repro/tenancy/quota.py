"""Fleet-wide per-tenant quota accounting.

One :class:`QuotaLedger` per fleet tracks the bytes and file count each
tenant has resident across *every* server cache.  Charges and releases
land from whichever server's data mover happens to insert or evict, so
each tenant's counters are genuinely shared state — exactly the kind
the race sanitizer exists for.  Every tenant's counter pair is one
named cell, ``tenancy.quota.t<j>`` (the byte budget couples the two:
an admission check reads both), noted on every read and write so
the ``races`` pass catches any refactor that lets two same-timestamp events
touch one tenant's quota without a causal order.

Quotas meter *device residency*, not raw data: under a compressed
cache tier (``compression_ratio < 1``, see
:class:`~repro.core.CacheManager`) the insert path charges the stored
(compressed) size, so a tenant's quota buys proportionally more raw
bytes — the same accounting the arbiter's slab/watermark math uses.
"""

from __future__ import annotations

from typing import Optional

from ..simcore import Environment, cell_name

from .tenant import TenantSpec

__all__ = ["QuotaLedger"]

RACE_CELLS = (
    ("tenancy.quota.t<j>", ("_used_bytes", "_used_files"),
     "charges and releases land from whichever server's data mover "
     "inserts or evicts; the byte budget couples the byte/file pair"),
)


class QuotaLedger:
    """Per-tenant cached-byte/file accounting with quota enforcement."""

    __slots__ = (
        "env",
        "_quota_bytes",
        "_quota_files",
        "_used_bytes",
        "_used_files",
        "_refusals",
        "_cells",
    )

    def __init__(self, env: Environment):
        self.env = env
        self._quota_bytes: dict[int, Optional[int]] = {}
        self._quota_files: dict[int, Optional[int]] = {}
        self._used_bytes: dict[int, int] = {}
        self._used_files: dict[int, int] = {}
        self._refusals: dict[int, int] = {}
        # Cell names are memoized at registration: would_exceed runs on
        # the per-miss insert path and must not rebuild labels (PERF103).
        self._cells: dict[int, str] = {}

    def add_tenant(self, spec: TenantSpec) -> None:
        """Register a tenant (idempotent; arrivals register lazily)."""
        tid = spec.tenant_id
        if tid in self._cells:
            return
        cell = self._cells[tid] = cell_name("tenancy.quota", "t", tid)
        # Registration zero-initializes the tenant's counter pair — a
        # genuine cell write: a lazy arrival racing a charge on the same
        # tenant would silently drop the charge.
        self.env.note_access(cell, "w", tag=("register", tid))
        self._quota_bytes[tid] = spec.quota_bytes
        self._quota_files[tid] = spec.quota_files
        self._used_bytes[tid] = 0
        self._used_files[tid] = 0
        self._refusals[tid] = 0

    # -- queries -----------------------------------------------------------
    def used_bytes(self, tenant: int) -> int:
        return self._used_bytes.get(tenant, 0)

    def used_files(self, tenant: int) -> int:
        return self._used_files.get(tenant, 0)

    def refusals(self, tenant: int) -> int:
        return self._refusals.get(tenant, 0)

    def would_exceed(self, tenant: int, nbytes: int) -> bool:
        """Would caching ``nbytes`` more push ``tenant`` past a quota?"""
        cell = self._cells.get(tenant)
        if cell is None:
            return False
        self.env.note_access(cell, "r")
        qb = self._quota_bytes[tenant]
        if qb is not None and self._used_bytes[tenant] + nbytes > qb:
            return True
        qf = self._quota_files[tenant]
        return qf is not None and self._used_files[tenant] + 1 > qf

    # -- mutation ------------------------------------------------------------
    def charge(self, tenant: int, nbytes: int) -> None:
        """Account one cached file of ``nbytes`` to ``tenant``."""
        cell = self._cells.get(tenant)
        if cell is None:
            return
        self.env.note_access(cell, "w")
        self._used_bytes[tenant] += nbytes
        self._used_files[tenant] += 1

    def release(self, tenant: int, nbytes: int) -> None:
        """Un-account one evicted file of ``nbytes``."""
        cell = self._cells.get(tenant)
        if cell is None:
            return
        self.env.note_access(cell, "w")
        self._used_bytes[tenant] -= nbytes
        self._used_files[tenant] -= 1

    def refuse(self, tenant: int) -> None:
        """Count one quota-refused insert (aggregate tally; increments
        commute, so this is deliberately not a cell write)."""
        if tenant in self._refusals:
            self._refusals[tenant] += 1
