"""Coverage autopilot: bias sampling toward near-violations.

The campaign feeds every checked scenario back to the
:class:`Autopilot`, which keeps a corpus keyed by scenario digest with
each run's invariant margins.  When proposing the next scenario it
flips a seeded coin: either a fresh :class:`ScenarioGenerator` draw, or
a mutation of a *near-violation* — a corpus entry whose smallest margin
fell under the threshold without actually breaking a bound.  Mutations
stay inside the scenario space (drop/retarget/advance faults, crank the
hot fraction, re-seed) so the executor and shrinker need no new cases.

Everything is derived from the campaign's
:class:`~repro.simcore.RandomStreams`, so a campaign replays exactly.

The corpus map is registered as a race-sanitizer cell
(``fuzz.autopilot.corpus``): updates happen from driver code today —
program-ordered, so the note is a no-op — but if a future change moves
corpus feedback inside the event loop, the ``--races`` gate starts
tracking it automatically instead of silently losing coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..faults import FaultEvent
from ..simcore import RandomStreams
from .invariants import InvariantReport
from .scenario import (
    Scenario,
    ScenarioGenerator,
    drop_fault,
    scenario_digest,
)

__all__ = ["Autopilot", "CorpusEntry"]

RACE_CELLS = (
    ("fuzz.autopilot.corpus", ("corpus",),
     "digest-keyed corpus folds; driver-side today, celled so in-loop "
     "feedback stays sanitizer-visible"),
)

#: unbroken runs scoring under this join the near-violation pool
NEAR_THRESHOLD = 0.8
#: chance a proposal mutates a pool entry instead of sampling fresh
MUTATE_BIAS = 0.4

#: mutation kinds, drawn uniformly per proposal
_MUTATIONS = (
    "reseed",
    "add_fault",
    "drop_fault",
    "retarget_fault",
    "advance_fault",
    "crank_workload",
)


@dataclass
class CorpusEntry:
    """One scenario's place in the corpus."""

    digest: str
    scenario: Scenario
    score: float  #: min margin over checked invariants (0 = violated)
    margins: dict[str, float]
    violated: tuple[str, ...]
    origin: str  #: "fresh" or "mutate:<parent digest>"


class Autopilot:
    """Seeded sampler feedback loop over one campaign's corpus."""

    def __init__(self, rand: RandomStreams):
        self.rand = rand
        #: digest -> entry; insertion order is proposal order
        self.corpus: dict[str, CorpusEntry] = {}

    # -- feedback -------------------------------------------------------
    def observe(
        self,
        scenario: Scenario,
        report: InvariantReport,
        origin: str = "fresh",
        env=None,
    ) -> CorpusEntry:
        """Fold one run's verdicts into the corpus."""
        digest = scenario_digest(scenario)
        entry = CorpusEntry(
            digest=digest,
            scenario=scenario,
            score=report.score,
            margins=dict(report.margins),
            violated=report.violated,
            origin=origin,
        )
        if env is not None:
            # driver-side today (a documented no-op); the cell exists so
            # in-loop corpus feedback would be sanitizer-visible
            env.note_access("fuzz.autopilot.corpus", "w", tag=digest)
        self.corpus[digest] = entry
        return entry

    def near_violations(self) -> list[CorpusEntry]:
        """Unbroken entries under the threshold, most interesting first
        (digest tie-break keeps the order machine-independent)."""
        pool = [
            e for e in self.corpus.values()
            if not e.violated and e.score < NEAR_THRESHOLD
        ]
        pool.sort(key=lambda e: (e.score, e.digest))
        return pool

    # -- proposals ------------------------------------------------------
    def propose(
        self, generator: ScenarioGenerator, index: int
    ) -> tuple[Scenario, str]:
        """The next scenario to run: fresh sample or near-miss mutant."""
        pool = self.near_violations()
        if pool and self.rand.uniform(f"bias.{index}", 0.0, 1.0) < MUTATE_BIAS:
            parent = pool[
                int(self.rand.stream(f"pick.{index}").integers(min(len(pool), 4)))
            ]
            mutant = self.mutate(parent.scenario, index)
            if scenario_digest(mutant) not in self.corpus:
                return mutant, f"mutate:{parent.digest}"
        return generator.sample(index), "fresh"

    def mutate(self, scenario: Scenario, index: int) -> Scenario:
        rand = self.rand.child(f"mutate.{index}")
        kind = str(rand.choice("kind", _MUTATIONS))
        if kind == "reseed":
            return replace(
                scenario, seed=int(rand.stream("seed").integers(2**31))
            )
        if kind == "add_fault":
            fault_kind = str(rand.choice("fkind", ("crash", "hang", "degrade")))
            ev = FaultEvent(
                time=float(rand.uniform("t", 0.0, 0.06)),
                kind=fault_kind,
                node=int(rand.stream("node").integers(scenario.n_nodes)),
                duration=float(rand.uniform("dur", 0.01, 0.06)),
                factor=float(rand.uniform("factor", 2.0, 10.0)),
            )
            return replace(scenario, faults=scenario.faults + (ev,))
        if kind == "drop_fault" and scenario.faults:
            return drop_fault(
                scenario,
                int(rand.stream("which").integers(len(scenario.faults))),
            )
        if kind == "retarget_fault" and scenario.faults:
            i = int(rand.stream("which").integers(len(scenario.faults)))
            ev = scenario.faults[i]
            if ev.node is not None:
                ev = replace(
                    ev, node=int(rand.stream("node").integers(scenario.n_nodes))
                )
            faults = scenario.faults[:i] + (ev,) + scenario.faults[i + 1:]
            return replace(scenario, faults=faults)
        if kind == "advance_fault" and scenario.faults:
            i = int(rand.stream("which").integers(len(scenario.faults)))
            ev = scenario.faults[i]
            ev = replace(
                ev, time=max(0.0, ev.time * float(rand.uniform("shift", 0.3, 1.7)))
            )
            faults = scenario.faults[:i] + (ev,) + scenario.faults[i + 1:]
            return replace(scenario, faults=faults)
        if kind == "crank_workload":
            wl = scenario.workload
            wl = replace(
                wl,
                hot_fraction=min(0.95, wl.hot_fraction + 0.1),
                reads_per_client=min(64, wl.reads_per_client + 8),
            )
            return replace(scenario, workload=wl)
        # fall through (e.g. drop_fault with no faults): perturb the seed
        return replace(scenario, seed=int(rand.stream("fallback").integers(2**31)))
