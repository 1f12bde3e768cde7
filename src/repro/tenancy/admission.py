"""Fleet admission control: reject / queue / degrade-to-PFS.

Jobs arrive with a cache-byte demand (their quota, or their dataset
size when unquoted).  The controller holds a running reservation
against the fleet's aggregate cache capacity (× an overcommit factor)
and resolves each arrival deterministically:

* **admit**   — demand fits: reserve and run.
* **queue**   — saturated, queue has room, and the demand fits the
  whole budget: park behind an event that fires (FIFO) as running
  jobs release their reservations.
* **degrade** — saturated and the queue full, or the demand exceeds
  the whole budget (it could never be promoted), degradation allowed:
  the job runs *now* but entirely against the PFS (the client's
  ``pfs_only`` mode), consuming zero cache.
* **reject**  — the same, degradation disallowed.

Every decision is appended to :attr:`decisions` — the deterministic
admission log the tenancy experiment prints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..simcore import Environment

from .tenant import TenantSpec

__all__ = ["AdmissionController", "AdmissionDecision"]

ACTIONS = ("admit", "queue", "degrade", "reject")


@dataclass
class AdmissionDecision:
    """One resolved arrival (the event is set for queued jobs only)."""

    tenant_id: int
    action: str
    t: float
    event: object = None


class AdmissionController:
    """Saturation gatekeeper over the fleet's aggregate cache bytes."""

    def __init__(
        self,
        env: Environment,
        fleet_capacity_bytes: int,
        overcommit: float = 1.0,
        queue_limit: int = 2,
        degrade_ok: bool = True,
    ):
        if fleet_capacity_bytes <= 0:
            raise ValueError("fleet_capacity_bytes must be positive")
        if overcommit <= 0:
            raise ValueError("overcommit must be positive")
        self.env = env
        self.budget = int(fleet_capacity_bytes * overcommit)
        self.queue_limit = queue_limit
        self.degrade_ok = degrade_ok
        self.reserved = 0
        self._held: dict[int, int] = {}
        self._waiting: deque[tuple[int, int, object]] = deque()
        self.decisions: list[AdmissionDecision] = []

    @staticmethod
    def demand_of(spec: TenantSpec) -> int:
        """Cache bytes a job asks the fleet to hold for it."""
        if spec.quota_bytes is not None:
            return spec.quota_bytes
        return spec.dataset_bytes

    def request(self, spec: TenantSpec) -> AdmissionDecision:
        """Resolve one arrival; queued jobs must wait on ``.event``."""
        demand = self.demand_of(spec)
        if self.reserved + demand <= self.budget:
            action, event = "admit", None
            self.reserved += demand
            self._held[spec.tenant_id] = demand
        elif demand <= self.budget and len(self._waiting) < self.queue_limit:
            action, event = "queue", self.env.event()
            self._waiting.append((spec.tenant_id, demand, event))
        elif self.degrade_ok:
            action, event = "degrade", None
        else:
            action, event = "reject", None
        decision = AdmissionDecision(
            tenant_id=spec.tenant_id,
            action=action,
            t=self.env.now,
            event=event,
        )
        self.decisions.append(decision)
        return decision

    def release(self, tenant_id: int) -> None:
        """A job finished: free its reservation, promote queued jobs."""
        held = self._held.pop(tenant_id, None)
        if held is None:
            return
        self.reserved -= held
        while self._waiting:
            tid, demand, event = self._waiting[0]
            if self.reserved + demand > self.budget:
                break
            self._waiting.popleft()
            self.reserved += demand
            self._held[tid] = demand
            event.succeed()

    def counts(self) -> dict[str, int]:
        """Decision tally for the admission log table."""
        out = {a: 0 for a in ACTIONS}
        for d in self.decisions:
            out[d.action] += 1
        return out
