"""Budgeted fuzz campaigns + JSON case files (``repro fuzz``).

A campaign is a loop of *propose → execute → check → feed back*:

* proposals come from the :class:`~repro.fuzz.autopilot.Autopilot`
  (fresh generator samples, biased toward near-violation mutants);
* every ``determinism_every``-th run executes twice and compares
  event-stream fingerprints;
* every failure is shrunk to a minimal repro and persisted as a JSON
  case file named by its scenario digest, so a double campaign run
  writes the identical corpus — the determinism acceptance bar.

Only the runs whose fingerprint is read are traced: both executions of
a double run, and one re-execution of a failing run that was not
traced, for its case file.  Runs are deterministic and observers do not
change the event stream, so that re-execution records the fingerprint
the failing run would have had.

Case-file schema (version 1)::

    {
      "version": 1,
      "digest": "<scenario digest>",
      "campaign_seed": 7, "run_index": 12, "origin": "fresh",
      "config": { ...InvariantConfig fields... },
      "scenario": { ...Scenario.to_dict()... },
      "violations": [{"invariant", "message", "value", "bound"}, ...],
      "margins": {"hung_read": 0.83, ...},
      "fingerprint": "<run fingerprint>",
      "shrunk": {
        "scenario": { ... }, "digest": "...",
        "violations": [...], "checks": 37,
        "removed": {"faults": 4, "tenants": 1, "clients": 2, "files": 20,
                    "epochs": 1},
        "divergence": null | "<first divergent event>"
      }
    }

``repro fuzz --replay case.json`` re-executes the shrunk scenario (or
the original with ``--original``) under the recorded config and exits 0
only if the recorded invariants fire again.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from ..simcore import EventTrace, RandomStreams
from .autopilot import Autopilot
from .executor import Observation, execute
from .invariants import (
    InvariantConfig,
    InvariantReport,
    InvariantViolation,
    check_observation,
)
from .scenario import Scenario, ScenarioGenerator, scenario_digest
from .shrink import ShrinkResult, shrink

__all__ = ["CampaignResult", "replay_case", "run_campaign", "write_case"]

CASE_VERSION = 1


@dataclass
class RunRecord:
    """One campaign iteration's outcome line."""

    index: int
    digest: str
    origin: str
    kind: str  #: workload kind (display)
    n_faults: int
    score: float
    violated: tuple[str, ...]


@dataclass
class CampaignResult:
    """Everything one ``repro fuzz`` campaign produced."""

    seed: int
    runs: list[RunRecord] = field(default_factory=list)
    cases: list[dict] = field(default_factory=list)
    case_paths: list[str] = field(default_factory=list)
    out_of_budget: bool = False

    @property
    def n_violations(self) -> int:
        return len(self.cases)

    @property
    def ok(self) -> bool:
        return not self.cases

    def render(self) -> str:
        lines = []
        for r in self.runs:
            verdict = (
                "VIOLATED " + ",".join(r.violated) if r.violated else "ok"
            )
            lines.append(
                f"run {r.index:3d}  {r.digest[:12]}  {r.kind:<9s} "
                f"faults={r.n_faults:<2d} margin={r.score:.2f}  "
                f"[{r.origin}]  {verdict}"
            )
        lines.append(
            f"{len(self.runs)} scenarios, {self.n_violations} invariant "
            f"violation(s)"
            + (" [stopped: time budget]" if self.out_of_budget else "")
        )
        return "\n".join(lines)


def _case_dict(
    seed: int,
    index: int,
    origin: str,
    scenario: Scenario,
    config: InvariantConfig,
    report: InvariantReport,
    fingerprint: str,
    shrunk: ShrinkResult | None,
) -> dict:
    case = {
        "version": CASE_VERSION,
        "digest": scenario_digest(scenario),
        "campaign_seed": seed,
        "run_index": index,
        "origin": origin,
        "config": config.to_dict(),
        "scenario": scenario.to_dict(),
        "violations": [
            {
                "invariant": v.invariant,
                "message": v.message,
                "value": v.value,
                "bound": v.bound,
            }
            for v in report.violations
        ],
        "margins": report.margins,
        "fingerprint": fingerprint,
        "shrunk": None,
    }
    if shrunk is not None:
        case["shrunk"] = {
            "scenario": shrunk.shrunk.to_dict(),
            "digest": shrunk.digest,
            "violations": [
                {
                    "invariant": v.invariant,
                    "message": v.message,
                    "value": v.value,
                    "bound": v.bound,
                }
                for v in shrunk.report.violations
            ],
            "checks": shrunk.checks,
            "removed": {
                "faults": shrunk.removed_faults,
                "tenants": shrunk.removed_tenants,
                "clients": shrunk.removed_clients,
                "files": shrunk.removed_files,
                "epochs": shrunk.removed_epochs,
            },
            "divergence": shrunk.divergence,
        }
    return case


def write_case(case: dict, corpus_dir: str) -> str:
    """Persist one case file; the digest names it, so identical failures
    land on the identical path."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, f"case_{case['digest'][:16]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(case, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_checked(
    scenario: Scenario,
    config: InvariantConfig,
    double: bool,
    sanitizer=None,
) -> tuple[Observation, InvariantReport]:
    """Execute ``scenario`` and check it.  A double run executes it
    twice, traced, and the checker compares the fingerprints; a single
    run is untraced.  ``sanitizer`` watches the first execution only."""
    obs = execute(
        scenario, config, trace=EventTrace() if double else None,
        sanitizer=sanitizer,
    )
    second = None
    if double:
        second = execute(scenario, config, trace=EventTrace()).fingerprint
    return obs, check_observation(obs, config, second_fingerprint=second)


def run_campaign(
    runs: int = 25,
    seed: int = 0,
    corpus_dir: str | None = None,
    time_budget: float = 0.0,
    config: InvariantConfig | None = None,
    shrink_failures: bool = True,
    sanitizer=None,
) -> CampaignResult:
    """Run a budgeted campaign; returns every verdict + written cases.

    ``time_budget`` (wall seconds, 0 = unlimited) only stops the loop
    *between* runs, so a budgeted campaign is still a prefix of the
    unbudgeted one with the same seed.  ``runs`` must be >= 1 and
    ``time_budget`` >= 0 (NaN is rejected, ``inf`` never stops).
    """
    if not runs >= 1:
        raise ValueError("runs must be >= 1")
    if not time_budget >= 0:
        raise ValueError("time_budget must be >= 0")
    config = config or InvariantConfig()
    generator = ScenarioGenerator(seed)
    autopilot = Autopilot(RandomStreams(seed).child("fuzz.autopilot"))
    result = CampaignResult(seed=seed)
    started = time.monotonic()  # simlint: waive SIM001 -- driver-side budget clock

    for index in range(runs):
        if index and time_budget > 0 and time.monotonic() - started > time_budget:  # simlint: waive SIM001 -- driver-side budget clock
            result.out_of_budget = True
            break
        scenario, origin = autopilot.propose(generator, index)
        double = (
            config.determinism_every > 0
            and index % config.determinism_every == 0
        )
        obs, report = run_checked(scenario, config, double, sanitizer)
        autopilot.observe(scenario, report, origin=origin)
        record = RunRecord(
            index=index,
            digest=scenario_digest(scenario),
            origin=origin,
            kind=scenario.workload.kind,
            n_faults=len(scenario.faults),
            score=report.score,
            violated=report.violated,
        )
        result.runs.append(record)
        if report.violations:
            fingerprint = obs.fingerprint
            if fingerprint is None:
                fingerprint = execute(
                    scenario, config, trace=EventTrace()
                ).fingerprint
            shrunk = (
                shrink(scenario, report.violated, config)
                if shrink_failures else None
            )
            case = _case_dict(
                seed, index, origin, scenario, config, report,
                fingerprint, shrunk,
            )
            result.cases.append(case)
            if corpus_dir:
                result.case_paths.append(write_case(case, corpus_dir))
    return result


def load_case(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        case = json.load(fh)
    if case.get("version") != CASE_VERSION:
        raise ValueError(
            f"unsupported case-file version {case.get('version')!r}"
        )
    return case


def replay_case(
    path: str, original: bool = False
) -> tuple[InvariantReport, tuple[str, ...], Scenario]:
    """Re-run a case file; returns ``(report, expected, scenario)``.

    Replays the shrunk scenario when one was recorded (the minimal
    repro is the artifact worth debugging), unless ``original``.
    """
    case = load_case(path)
    config = InvariantConfig.from_dict(case["config"])
    source = case["scenario"]
    expected_rows = case["violations"]
    if not original and case.get("shrunk"):
        source = case["shrunk"]["scenario"]
        expected_rows = case["shrunk"]["violations"]
    scenario = Scenario.from_dict(source)
    expected = tuple(dict.fromkeys(row["invariant"] for row in expected_rows))

    _obs, report = run_checked(scenario, config, double=True)
    return report, expected, scenario


def render_violations(violations: list[InvariantViolation]) -> str:
    return "\n".join(f"  {v.render()}" for v in violations) or "  (none)"
