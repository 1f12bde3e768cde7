"""``repro bench`` — engine throughput on pinned scenarios.

The perf trajectory (ROADMAP item 1): every scenario here is pinned —
fixed seed, fixed topology, fixed workload — so its *event count* is a
deterministic property of the code, and events/sec is a property of the
engine.  ``BENCH_engine.json`` checks the current numbers in; CI re-runs
the scenarios and compares with a tolerance band (timing is noisy across
runners, so the band is wide and guards collapse-scale regressions, not
percent-level drift).  Event-count drift, by contrast, is exact: it
means a PR changed scenario behavior and must refresh the checked-in
file alongside it.

Measurement protocol, per scenario:

* one *counting* run with an :class:`~repro.simcore.EventTrace`
  attached — ``trace.count`` is the deterministic kernel-event total;
* ``repeats`` *timing* runs, untraced (unless the scenario is pinned as
  traced — ``epochs_traced`` exists exactly to price the observer hook,
  and the fuzz executor always fingerprints), taking the **minimum**
  wall time, which is the standard low-noise estimator;
* ``events_per_sec = events / best_wall``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from .simcore import EventTrace

__all__ = [
    "BENCH_VERSION",
    "SCENARIOS",
    "TRACED_SCENARIOS",
    "BenchScenario",
    "BenchResult",
    "run_bench",
    "load_bench",
    "compare_bench",
    "run_bench_cli",
]

BENCH_VERSION = 1

#: Fail the comparison when events/sec drops below
#: ``(1 - tolerance) * baseline``.  Wide by design: the checked-in
#: numbers come from one machine, CI runners are another.
DEFAULT_TOLERANCE = 0.6

DEFAULT_REPEATS = 3


def _epochs(trace: EventTrace | None) -> None:
    from .check import _epochs_run

    _epochs_run(seed=0, n_nodes=2, files_per_rank=4)(trace)


def _membership(trace: EventTrace | None) -> None:
    from .check.races import membership_smoke

    membership_smoke(seed=0, n_nodes=4, n_files=12, trace=trace)


def _resilience(trace: EventTrace | None) -> None:
    from .experiments.resilience import resilience_sweep

    resilience_sweep(
        fail_fractions=(0.0, 0.5),
        n_nodes=4,
        n_files=12,
        file_size=25_000,
        seed=0,
        trace=trace,
    )


def _tenancy(trace: EventTrace | None) -> None:
    from .experiments.tenancy import SMOKE, tenancy_isolation

    # smoke-scale hot-storm isolation run (all three cache modes); the
    # shrunken cache_fraction keeps the smoke in the same thrash regime
    # the full-scale scenario exercises
    tenancy_isolation(**SMOKE, trace=trace)


def _prefetch(trace: EventTrace | None) -> None:
    from .experiments.prefetch import SMOKE, prefetch_comparison

    # smoke-scale clairvoyant run (all three modes, crash leg on): the
    # same contention regime the full scenario exercises, CI-sized
    prefetch_comparison(**SMOKE, trace=trace)


def _fuzz_single(trace: EventTrace | None) -> None:
    from .fuzz.executor import execute
    from .fuzz.scenario import ScenarioGenerator

    # The executor always fingerprints (the determinism invariant needs
    # it), so this scenario is pinned as traced.
    execute(ScenarioGenerator(seed=7).sample(0), trace=trace or EventTrace())


@dataclass(frozen=True)
class BenchScenario:
    """One pinned scenario: a runnable taking an optional trace."""

    name: str
    run: Callable[[EventTrace | None], None]
    traced: bool = False
    note: str = ""


SCENARIOS: dict[str, BenchScenario] = {
    s.name: s
    for s in (
        BenchScenario(
            "epochs", _epochs,
            note="2-node resnet50 epochs (the repro-check determinism run)",
        ),
        BenchScenario(
            "epochs_traced", _epochs, traced=True,
            note="same epochs run with EventTrace attached (observer cost)",
        ),
        BenchScenario(
            "membership", _membership,
            note="crash-burst membership/repair smoke (races scenario)",
        ),
        BenchScenario(
            "resilience", _resilience,
            note="resilience sweep, fail fractions 0.0/0.5 on 4 nodes",
        ),
        BenchScenario(
            "tenancy", _tenancy,
            note="multi-tenant hot-storm isolation, all three cache modes",
        ),
        BenchScenario(
            "prefetch", _prefetch,
            note="clairvoyant prefetch comparison, all three modes + crash leg",
        ),
        BenchScenario(
            "fuzz_single", _fuzz_single, traced=True,
            note="one seeded fuzz-executor scenario end to end",
        ),
    )
}

TRACED_SCENARIOS = frozenset(s.name for s in SCENARIOS.values() if s.traced)


@dataclass
class BenchResult:
    """Events/sec per pinned scenario, JSON round-trippable."""

    repeats: int = DEFAULT_REPEATS
    scenarios: dict[str, dict] = field(default_factory=dict)
    version: int = BENCH_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "unit": "events_per_sec",
            "repeats": self.repeats,
            "scenarios": {
                name: dict(entry) for name, entry in sorted(self.scenarios.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchResult":
        if data.get("version") != BENCH_VERSION:
            raise ValueError(
                f"unsupported bench format version {data.get('version')!r}"
            )
        return cls(
            repeats=int(data.get("repeats", DEFAULT_REPEATS)),
            scenarios={
                str(name): dict(entry)
                for name, entry in data.get("scenarios", {}).items()
            },
        )

    def write(self, path: str) -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def render(self) -> str:
        lines = [
            f"{'scenario':<16} {'events':>10} {'best wall (s)':>14} "
            f"{'events/sec':>12}"
        ]
        for name, entry in sorted(self.scenarios.items()):
            lines.append(
                f"{name:<16} {entry['events']:>10} "
                f"{entry['best_wall_s']:>14.4f} "
                f"{entry['events_per_sec']:>12.0f}"
            )
        return "\n".join(lines)


def run_bench(
    scenarios: list[str] | None = None,
    repeats: int = DEFAULT_REPEATS,
    verbose: bool = False,
) -> BenchResult:
    """Run the pinned scenarios; count events once, time ``repeats``×."""
    names = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown bench scenario(s): {', '.join(unknown)}")
    result = BenchResult(repeats=repeats)
    for name in names:
        sc = SCENARIOS[name]
        counter = EventTrace()
        sc.run(counter)
        events = counter.count
        walls = []
        for _ in range(repeats):
            timing_trace = EventTrace() if sc.traced else None
            t0 = time.perf_counter()  # simlint: waive SIM001 -- wall clock is the measurement here
            sc.run(timing_trace)
            walls.append(
                time.perf_counter() - t0  # simlint: waive SIM001 -- wall clock is the measurement here
            )
        best = min(walls)
        result.scenarios[name] = {
            "events": events,
            "best_wall_s": round(best, 6),
            "events_per_sec": round(events / best, 1),
            "traced": sc.traced,
        }
        if verbose:
            print(
                f"bench: {name}: {events} events, best {best:.4f}s, "
                f"{events / best:,.0f} events/sec"
            )
    return result


def load_bench(path: str) -> BenchResult:
    with open(path, encoding="utf-8") as fh:
        return BenchResult.from_dict(json.load(fh))


def compare_bench(
    current: BenchResult,
    baseline: BenchResult,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Regression messages, empty when current holds the baseline's band.

    Two gates per scenario present in both results:

    * **events** must match exactly — the scenarios are deterministic,
      so drift means scenario behavior changed and the checked-in
      baseline must be refreshed in the same PR;
    * **events/sec** must stay above ``(1 - tolerance) * baseline``.
    """
    problems: list[str] = []
    for name, base in sorted(baseline.scenarios.items()):
        cur = current.scenarios.get(name)
        if cur is None:
            problems.append(f"{name}: scenario missing from current run")
            continue
        if cur["events"] != base["events"]:
            problems.append(
                f"{name}: event count drifted {base['events']} -> "
                f"{cur['events']} — scenario behavior changed; refresh "
                f"BENCH_engine.json in this PR"
            )
        floor = (1.0 - tolerance) * base["events_per_sec"]
        if cur["events_per_sec"] < floor:
            problems.append(
                f"{name}: {cur['events_per_sec']:,.0f} events/sec is below "
                f"the tolerance band (baseline "
                f"{base['events_per_sec']:,.0f}, floor {floor:,.0f})"
            )
    return problems


def run_bench_cli(
    output: str | None = None,
    compare: str | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    repeats: int = DEFAULT_REPEATS,
    scenarios: list[str] | None = None,
) -> int:
    """The ``repro bench`` entry point; returns the exit code."""
    result = run_bench(scenarios=scenarios, repeats=repeats, verbose=True)
    print(result.render())
    if output:
        result.write(output)
        print(f"bench: wrote {output}")
    rc = 0
    if compare:
        baseline = load_bench(compare)
        problems = compare_bench(result, baseline, tolerance=tolerance)
        for p in problems:
            print(f"bench REGRESSION: {p}")
        if problems:
            rc = 1
        else:
            print(
                f"bench: within tolerance band of {compare} "
                f"({len(baseline.scenarios)} scenario(s), "
                f"tolerance {tolerance:.0%})"
            )
    return rc
