"""The clairvoyant planner: seeded epoch plans → per-client schedules.

NoPFS's observation (PAPERS.md): because the global shuffle is a pure
function of ``(dataset seed, shuffle seed, epoch)``, the complete
per-rank access order of every future epoch is computable before
training starts.  :class:`ClairvoyantPlanner` materializes exactly that
— a ``(path, size)`` sequence per client, concatenated across epochs —
from :func:`~repro.dl.make_epoch_plan`, the same code path the data
loader itself uses, so plan and demand can never disagree.

The planner is pure data: no environment, no processes, no RNG draws of
its own (SIM002 — it only *reads* the dataset's seeded order).  Its
:meth:`digest` is a stable fingerprint of the whole schedule, pinning
same-seed plan identity in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..simcore import stable_hash64

__all__ = ["ClairvoyantPlanner", "ClientSchedule"]


@dataclass(frozen=True)
class ClientSchedule:
    """One client's full planned access order across all epochs."""

    key: object
    entries: tuple[tuple[str, int], ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_bytes(self) -> int:
        return sum(size for _, size in self.entries)


class ClairvoyantPlanner:
    """Materialized per-client access schedules, keyed like
    :meth:`~repro.core.HVACDeployment.client` keys clients."""

    def __init__(self, schedules: Mapping[object, Sequence[tuple[str, int]]]):
        if not schedules:
            raise ValueError("planner needs at least one client schedule")
        self._schedules: dict[object, ClientSchedule] = {
            key: ClientSchedule(
                key=key,
                entries=tuple((str(p), int(s)) for p, s in entries),
            )
            for key, entries in schedules.items()
        }

    @classmethod
    def from_epoch_plans(
        cls,
        dataset,
        n_ranks: int,
        epochs: int,
        shuffle_seed: int = 0,
    ) -> "ClairvoyantPlanner":
        """Plan ``epochs`` epochs of ``dataset`` for ``n_ranks`` readers,
        one client per rank (the classic one-client-per-node deployment).
        """
        from ..dl.loader import make_epoch_plan

        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        schedules: dict[object, list[tuple[str, int]]] = {
            rank: [] for rank in range(n_ranks)
        }
        for epoch in range(epochs):
            plan = make_epoch_plan(dataset, epoch, n_ranks, shuffle_seed=shuffle_seed)
            for rank, shard in enumerate(plan.shards):
                schedules[rank].extend(
                    (dataset.path(int(i)), dataset.size(int(i)))
                    for i in shard.indices
                )
        return cls(schedules)

    @classmethod
    def from_plans(
        cls, plans: Mapping[object, Sequence[tuple[str, int]]]
    ) -> "ClairvoyantPlanner":
        """Plan from explicit per-client read lists (the fuzz executor's
        pure-data scenario plans)."""
        return cls(plans)

    # -- queries -----------------------------------------------------------
    @property
    def keys(self) -> list[object]:
        from ..core.deployment import client_key_order

        return sorted(self._schedules, key=client_key_order)

    def schedule(self, key) -> ClientSchedule:
        return self._schedules[key]

    def schedules(self) -> dict[object, ClientSchedule]:
        return {key: self._schedules[key] for key in self.keys}

    def digest(self) -> int:
        """Stable fingerprint of the full schedule (plan identity)."""
        parts: list[str] = []
        for key in self.keys:
            sched = self._schedules[key]
            parts.append(str(key))
            parts.extend(f"{p}:{s}" for p, s in sched.entries)
        return stable_hash64("clairvoyant-plan", *parts)
