"""Cache partition-vs-share arbitration (the Hoard question).

One :class:`TenantCacheArbiter` attaches to each server's
:class:`~repro.core.cache.CacheManager` and takes over two decisions on
the insert path: *may this tenant cache this file* (quota + slab
admission) and *whose file pays for the room* (victim selection).  Hits
and the byte budget stay the cache's own; the arbiter only adds tenant
ownership on top.  Three modes:

``shared``
    Status quo ante: one global pool, victims from the cache's own
    eviction policy (global LRU with the ``lru`` spec policy).  One
    tenant's storm evicts anyone's files.
``dedicated``
    Hard slabs: each tenant owns ``capacity × weight/Σweights`` bytes of
    every cache and only ever evicts its own files; a tenant that would
    overflow its slab evicts from itself or is refused.  Perfect
    isolation, zero statistical multiplexing.
``weighted``
    Weighted-fair with per-tenant watermarks: tenants borrow freely
    while the cache has room, but when an insert needs space the victim
    comes from the tenant *most over its watermark* (LRU within the
    tenant; deterministic lowest-id tie-break).  A tenant under its
    watermark is never robbed while anyone is over — the aggressor's
    churn cannibalizes the aggressor.

All iteration is over insertion-ordered dicts keyed by sorted tenant
ids, so victim choice is deterministic and replayable (SIM004).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from .quota import QuotaLedger
from .tenant import tenant_of_path

__all__ = ["TENANCY_MODES", "TenantCacheArbiter"]

TENANCY_MODES = ("shared", "dedicated", "weighted")


class TenantCacheArbiter:
    """Per-cache tenancy arbitration over one CacheManager's index."""

    __slots__ = (
        "mode",
        "ledger",
        "cache",
        "_weights",
        "_total_weight",
        "_owner",
        "_used_by",
        "_order",
    )

    def __init__(
        self,
        mode: str,
        ledger: QuotaLedger,
        weights: dict[int, float],
    ):
        if mode not in TENANCY_MODES:
            raise ValueError(f"unknown tenancy cache mode {mode!r}")
        self.mode = mode
        self.ledger = ledger
        self.cache = None
        self._weights: dict[int, float] = {}
        self._total_weight = 0.0
        #: resident path -> owning tenant (this cache only)
        self._owner: dict[str, int] = {}
        #: tenant -> resident bytes (this cache only)
        self._used_by: dict[int, int] = {}
        #: tenant -> LRU-ordered ``path -> size`` (victim selection)
        self._order: dict[int, OrderedDict[str, int]] = {}
        for tid in sorted(weights):
            self.add_tenant(tid, weights[tid])

    def attach(self, cache) -> "TenantCacheArbiter":
        """Install onto a CacheManager; returns self for chaining."""
        if cache.arbiter is not None:
            raise ValueError(f"cache {cache.name} already has an arbiter")
        self.cache = cache
        cache.arbiter = self
        return self

    def add_tenant(self, tenant: int, weight: float) -> None:
        """Register a tenant (idempotent; keyed in sorted-id order)."""
        if tenant in self._weights:
            return
        if weight <= 0:
            raise ValueError("tenant weight must be positive")
        self._weights[tenant] = weight
        self._total_weight += weight
        self._used_by[tenant] = 0
        self._order[tenant] = OrderedDict()
        if sorted(self._weights) != list(self._weights):
            # Re-key in sorted order so victim scans stay deterministic
            # regardless of registration order (arrivals register lazily).
            self._weights = {t: self._weights[t] for t in sorted(self._weights)}
            self._used_by = {t: self._used_by[t] for t in sorted(self._used_by)}
            self._order = {t: self._order[t] for t in sorted(self._order)}

    # -- derived shares ----------------------------------------------------
    def share_bytes(self, tenant: int) -> int:
        """The tenant's slab (``dedicated``) / watermark (``weighted``)."""
        w = self._weights.get(tenant)
        if w is None or self._total_weight <= 0:
            return 0
        return int(self.cache.capacity_bytes * w / self._total_weight)

    def _resolve(self, tenant: Optional[int], path: str) -> Optional[int]:
        if tenant is None:
            tenant = tenant_of_path(path)
        if tenant is not None and tenant not in self._weights:
            return None
        return tenant

    # -- insert-path decisions --------------------------------------------
    def admit(self, tenant: Optional[int], path: str, size: int) -> bool:
        """Quota + slab admission for one insert (False = refuse)."""
        t = self._resolve(tenant, path)
        if t is None:
            return True
        if self.ledger.would_exceed(t, size):
            self.ledger.refuse(t)
            return False
        if self.mode == "dedicated" and size > self.share_bytes(t):
            return False
        return True

    def make_room(self, tenant: Optional[int], path: str, size: int) -> bool:
        """Evict until ``size`` fits, per mode (False = refuse insert)."""
        cache = self.cache
        t = self._resolve(tenant, path)
        if self.mode == "dedicated" and t is not None:
            share = self.share_bytes(t)
            order = self._order[t]
            while (
                self._used_by[t] + size > share
                or cache.used_bytes + size > cache.capacity_bytes
            ):
                victim = next(iter(order), None)
                if victim is None:
                    return False
                cache._evict(victim)
            return True
        if self.mode == "weighted" and t is not None:
            while cache.used_bytes + size > cache.capacity_bytes:
                victim = self._weighted_victim(t)
                if victim is None:
                    return False
                cache._evict(victim)
            return True
        # shared mode, or a path outside every registered namespace:
        # the cache's own global policy picks victims.
        while cache.used_bytes + size > cache.capacity_bytes:
            victim = cache.policy.victim()
            if victim is None:
                return False
            cache._evict(victim)
        return True

    def _weighted_victim(self, inserting: int) -> Optional[str]:
        """The LRU head of the tenant most over its watermark.

        Scans the (sorted-id) tenant table: strictly-greatest excess
        wins, first-seen (lowest id) breaks ties.  When nobody is over
        water the inserting tenant pays for its own growth; a tenant at
        or under its watermark is only robbed when no over-water tenant
        has a file left to give.
        """
        donor = None
        donor_excess = None
        for tid, order in self._order.items():
            if not order:
                continue
            excess = self._used_by[tid] - self.share_bytes(tid)
            if donor_excess is None or excess > donor_excess:
                donor = tid
                donor_excess = excess
        if donor is None:
            return None
        if donor_excess is not None and donor_excess <= 0:
            own = self._order.get(inserting)
            if own:
                donor = inserting
        return next(iter(self._order[donor]))

    # -- residency bookkeeping --------------------------------------------
    def on_insert(self, tenant: Optional[int], path: str, size: int) -> None:
        t = self._resolve(tenant, path)
        if t is None:
            return
        self._owner[path] = t
        self._used_by[t] += size
        self._order[t][path] = size
        self.ledger.charge(t, size)

    def on_evict(self, path: str) -> None:
        t = self._owner.pop(path, None)
        if t is None:
            return
        size = self._order[t].pop(path)
        self._used_by[t] -= size
        self.ledger.release(t, size)

    def on_access(self, path: str) -> None:
        t = self._owner.get(path)
        if t is not None:
            self._order[t].move_to_end(path)
