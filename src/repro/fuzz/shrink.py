"""Minimizing repro shrinker: greedy delta-debugging over scenarios.

Given a failing scenario and the invariant it broke, repeatedly try the
smallest structural deletions —

1. drop one fault at a time (to fixpoint),
2. drop the highest tenant at a time (down to a classic single-tenant
   fleet, when the scenario has several),
3. drop one reading client at a time (keeping at least one),
4. drop tail files (halving first, then one at a time),
5. collapse to a single measured epoch —

re-running the executor + checker after each deletion and keeping the
candidate only if the *same* invariant still fires.  Deletion order is
fixed, so the same failing case always shrinks to the same core (the
``repro fuzz`` determinism acceptance bar covers this).

A probe runs the scenario once, untraced, unless ``determinism`` is a
target: acceptance reads only the target invariants, so no other
target needs the second run's fingerprint.  The shrunk scenario's final
report always comes from one traced double run, so it carries the
determinism verdict whatever the target.

For ``determinism`` violations the shrunk scenario is additionally
handed to the PR-2 divergence bisector
(:func:`repro.check.divergence.find_first_divergence`), which pins the
first divergent kernel event of the double run into the case file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .executor import execute
from .invariants import InvariantConfig, InvariantReport
from .scenario import (
    Scenario,
    drop_client,
    drop_fault,
    drop_tenant,
    scenario_digest,
)

__all__ = ["ShrinkResult", "shrink"]


@dataclass
class ShrinkResult:
    """The minimization outcome for one failing scenario."""

    original: Scenario
    shrunk: Scenario
    #: the invariants that had to keep firing
    target: tuple[str, ...]
    #: final report of the shrunk scenario
    report: InvariantReport
    checks: int = 0
    removed_faults: int = 0
    removed_tenants: int = 0
    removed_clients: int = 0
    removed_files: int = 0
    removed_epochs: int = 0
    #: first divergent event (determinism failures only)
    divergence: str | None = None

    @property
    def digest(self) -> str:
        return scenario_digest(self.shrunk)

    def summary(self) -> str:
        return (
            f"shrunk {len(self.original.faults)}->{len(self.shrunk.faults)} "
            f"faults, {self.original.tenants}->{self.shrunk.tenants} tenants, "
            f"{len(self.original.workload.clients)}->"
            f"{len(self.shrunk.workload.clients)} clients, "
            f"{self.original.n_files}->{self.shrunk.n_files} files "
            f"in {self.checks} checks"
        )


def _check(
    scenario: Scenario, config: InvariantConfig, double: bool = True
) -> InvariantReport:
    """One executor + checker round: by default the traced double run,
    so determinism failures keep reproducing while shrinking; one
    untraced run (determinism skipped) when not ``double``."""
    from .campaign import run_checked  # campaign imports this module

    return run_checked(scenario, config, double)[1]


def shrink(
    scenario: Scenario,
    target: tuple[str, ...],
    config: InvariantConfig | None = None,
    check=None,
) -> ShrinkResult:
    """Minimize ``scenario`` while ``target`` invariants keep firing.

    ``check`` (scenario -> InvariantReport) is injectable for tests and
    then serves every probe and the final report.  The default probes
    with one untraced run (two traced runs when ``determinism`` is a
    target) and takes the final report from one traced double run.
    """
    config = config or InvariantConfig()
    probe = check
    if check is None:
        check = partial(_check, config=config)
        probe = (
            check if "determinism" in target
            else partial(_check, config=config, double=False)
        )

    target = tuple(sorted(target))
    budget = [config.max_shrink_checks]
    last_report = [None]

    def reproduces(candidate: Scenario) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        try:
            report = probe(candidate)
        except (ValueError, RuntimeError):
            return False  # structurally invalid candidate: not a repro
        if set(target) <= set(report.violated):
            last_report[0] = report
            return True
        return False

    result = ShrinkResult(
        original=scenario, shrunk=scenario, target=target,
        report=None,  # filled below
    )
    current = scenario

    # 1: faults, one at a time, to fixpoint
    changed = True
    while changed and budget[0] > 0:
        changed = False
        for i in range(len(current.faults)):
            candidate = drop_fault(current, i)
            if reproduces(candidate):
                current = candidate
                result.removed_faults += 1
                changed = True
                break

    # 2: tenants, highest first, down to a classic single-tenant fleet
    while current.tenants > 1 and budget[0] > 0:
        candidate = drop_tenant(current)
        if reproduces(candidate):
            current = candidate
            result.removed_tenants += 1
        else:
            break

    # 3: clients, one at a time, keeping at least one
    changed = True
    while changed and budget[0] > 0:
        changed = False
        for node in current.workload.clients:
            if len(current.workload.clients) <= 1:
                break
            candidate = drop_client(current, node)
            if reproduces(candidate):
                current = candidate
                result.removed_clients += 1
                changed = True
                break

    # 4: files — halve the tail while it reproduces, then linear steps
    while current.n_files > 1 and budget[0] > 0:
        half = replace(current, n_files=max(1, current.n_files // 2))
        if reproduces(half):
            result.removed_files += current.n_files - half.n_files
            current = half
        else:
            break
    changed = True
    while changed and current.n_files > 1 and budget[0] > 0:
        changed = False
        candidate = replace(current, n_files=current.n_files - 1)
        if reproduces(candidate):
            current = candidate
            result.removed_files += 1
            changed = True

    # 5: epochs
    if current.epochs > 1 and budget[0] > 0:
        candidate = replace(current, epochs=1)
        if reproduces(candidate):
            result.removed_epochs = current.epochs - 1
            current = candidate

    result.shrunk = current
    result.checks = config.max_shrink_checks - budget[0]
    # ``current`` is the last accepted candidate: its probe report is
    # the final one when the probe is the full check
    if probe is check and last_report[0] is not None:
        result.report = last_report[0]
    else:
        result.report = check(current)

    if "determinism" in target:
        result.divergence = _bisect_divergence(current, config)
    return result


def _bisect_divergence(scenario: Scenario, config: InvariantConfig) -> str | None:
    """Reuse the PR-2 bisector to name the first divergent event of the
    shrunk scenario's double run."""
    from ..check.divergence import find_first_divergence

    def run(trace) -> None:
        execute(scenario, config, trace=trace)

    report = find_first_divergence(run)
    return report.describe() if report is not None else None
