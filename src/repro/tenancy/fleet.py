"""Fleet-side tenancy wiring over one HVAC deployment.

:class:`TenantFleet` splits multi-tenant state along the line the
subsystem exists to draw: *per-job* client state (detector evidence,
retry budgets, RNG streams — one :class:`~repro.core.client.HVACClient`
per (node, tenant)) stays with the deployment's keyed client factory,
while *fleet-wide* state (the :class:`~repro.tenancy.quota.QuotaLedger`
and one :class:`~repro.tenancy.arbiter.TenantCacheArbiter` per server
cache, all sharing that ledger) lives here.  Tenants register lazily —
the arrival process calls :meth:`add_tenant` as jobs enter — and every
registration fans out to all per-cache arbiters, so victim selection
and quota enforcement see one consistent tenant table everywhere.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .admission import AdmissionController
from .arbiter import TenantCacheArbiter
from .quota import QuotaLedger
from .tenant import TenantSpec

__all__ = ["TenantFleet"]


class TenantFleet:
    """Quota ledger + per-cache arbiters + keyed clients for one fleet."""

    def __init__(self, dep, mode: str = "shared", tenants: Iterable[TenantSpec] = ()):
        self.dep = dep
        self.env = dep.env
        self.mode = mode
        self.tenants: dict[int, TenantSpec] = {}
        self.ledger = QuotaLedger(self.env)
        self.arbiters: list[TenantCacheArbiter] = []
        for server in dep.servers:
            arb = TenantCacheArbiter(mode, self.ledger, {})
            arb.attach(server.cache)
            self.arbiters.append(arb)
        for spec in tenants:
            self.add_tenant(spec)

    @property
    def capacity_bytes(self) -> int:
        """Aggregate cache bytes across every server of the fleet."""
        return sum(s.cache.capacity_bytes for s in self.dep.servers)

    def add_tenant(self, spec: TenantSpec) -> None:
        """Register a tenant everywhere (idempotent, arrival-ordered)."""
        if spec.tenant_id in self.tenants:
            return
        self.tenants[spec.tenant_id] = spec
        self.ledger.add_tenant(spec)
        for arb in self.arbiters:
            arb.add_tenant(spec.tenant_id, spec.weight)

    def client(self, node_id: int, tenant_id: int):
        """The (node, tenant) client — per-job state, built on demand."""
        return self.dep.client(node_id, tenant=tenant_id)

    def make_admission(
        self,
        overcommit: float = 1.0,
        queue_limit: int = 2,
        degrade_ok: bool = True,
    ) -> AdmissionController:
        """An admission controller sized to this fleet's cache bytes."""
        return AdmissionController(
            self.env,
            self.capacity_bytes,
            overcommit=overcommit,
            queue_limit=queue_limit,
            degrade_ok=degrade_ok,
        )

    # -- fleet-wide queries -------------------------------------------------
    def occupancy(self) -> dict[int, int]:
        """Per-tenant resident bytes (the partition table the report prints)."""
        return {tid: self.ledger.used_bytes(tid) for tid in sorted(self.tenants)}
