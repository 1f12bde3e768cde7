"""``repro check`` — the determinism & sim-safety analyzer.

Four layers, all runnable from the CLI and from tests.  The static
ones, and the ``--perf`` hot-path analyzer (:mod:`.perf`), share one
front end, :class:`Program` (:mod:`.program`): per run every file is
parsed once, its comments are tokenized once for the waiver scan, and
the call graph is built once, on first use.

* **Static, per-function**: an AST lint pass (:mod:`.rules`,
  :mod:`.linter`) with repro-specific rules guarding the engine's
  bit-for-bit determinism contract (see docs/INTERNALS.md); the
  set-ordering rules share one unordered-value fact (:mod:`.unordered`).
* **Static, interprocedural**: a module-level call-graph + taint pass
  (:mod:`.callgraph`, :mod:`.taint`) that propagates nondeterminism
  primitives through helpers and across modules, reporting SIM011 at
  the sim-scope call site with the full source→sink chain
  (``repro check --taint``).
* **Static, whole-program**: a shared-state audit (:mod:`.cells`,
  :mod:`.cell_registry`) that walks the call graph from every
  process-spawn root, finds attribute writes reachable from two or
  more concurrent roots, and diffs them against the race-sanitizer
  cells each module declares in its ``RACE_CELLS`` — proving the
  runtime sanitizer sees every shared mutable cell, and that every
  noted cell is declared (``repro check --cells``).
* **Runtime**: event-stream fingerprinting
  (:class:`repro.simcore.EventTrace`) plus a double-run comparison
  that, on divergence, bisects to the first divergent kernel event
  (:mod:`.divergence`); and a sim-time race sanitizer (:mod:`.races`)
  that flags same-timestamp events whose order is decided only by heap
  insertion sequence yet touch the same shared-state cell
  (``repro check --races``).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence

from .divergence import DivergenceReport, find_first_divergence, fingerprint_run
from .linter import TreeLint, lint_program, lint_source, lint_tree
from .program import Program, StaleWaiver, scope_of
from .perf import (
    PERF_RULES,
    PerfLint,
    perf_lint_files,
    perf_lint_source,
    perf_lint_tree,
)
from .cells import RACE_RULES, CellAudit, audit_files, audit_source, audit_tree
from .cell_registry import CellDecl
from .races import RaceReport, RaceSanitizer
from .rules import RULES, Violation

__all__ = [
    "PERF_RULES",
    "RACE_RULES",
    "RULES",
    "Violation",
    "CellAudit",
    "CellDecl",
    "DivergenceReport",
    "PerfLint",
    "Program",
    "RaceReport",
    "RaceSanitizer",
    "StaleWaiver",
    "TreeLint",
    "audit_files",
    "audit_source",
    "audit_tree",
    "find_first_divergence",
    "fingerprint_run",
    "lint_program",
    "lint_source",
    "lint_tree",
    "perf_lint_files",
    "perf_lint_source",
    "perf_lint_tree",
    "scope_of",
    "default_lint_roots",
    "run_lint",
    "run_perf",
    "run_cells",
    "run_determinism",
    "run_races",
    "run_check",
]


def default_lint_roots() -> list[str]:
    """The in-tree source root, resolved from this package's location."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [pkg_root]  # .../src/repro


def _report(result, summary: str, verbose: bool, drift: Sequence[str] = ()) -> list[str]:
    """Print a static pass's findings (violations, stale waivers, then
    any drift lines) and, if ``verbose``, ``summary`` with the pass's
    status; return the findings printed."""
    lines = [v.render() for v in result.violations]
    lines += [w.render() for w in result.stale_waivers]
    lines += drift
    for line in lines:
        print(line)
    if verbose:
        counts = (
            (result.violations, "violation(s)"),
            (result.stale_waivers, "stale waiver(s)"),
            (drift, "drift error(s)"),
        )
        status = ", ".join(f"{len(found)} {what}" for found, what in counts if found)
        print(f"{summary}, {status or 'clean'}")
    return lines


def run_lint(program: Program, verbose: bool = True, taint: bool = False) -> int:
    """Lint ``program``; print violations + stale waivers; return exit code."""
    result = lint_program(program, taint=taint)
    name = "simlint+taint" if taint else "simlint"
    _report(result, f"{name}: {result.n_files} file(s) checked", verbose)
    return 0 if result.clean else 1


def run_perf(program: Program, verbose: bool = True) -> int:
    """Run the hot-path analyzer; print findings; return exit code."""
    result = perf_lint_files(program)
    hot = "all functions hot" if result.all_hot else f"{result.n_hot} hot function(s)"
    _report(result, f"perf: {result.n_files} file(s) checked, {hot}", verbose)
    return 0 if result.clean else 1


def run_cells(
    program: Program, output: str | None = None, verbose: bool = True
) -> int:
    """Run the shared-state audit; print findings and drift between
    note sites and ``RACE_CELLS`` declarations; return exit code."""
    result = audit_files(program)
    summary = (
        f"cells: {result.n_files} file(s), {result.n_roots} concurrency "
        f"root(s), {result.n_writes} write site(s)"
    )
    lines = _report(result, summary, verbose, drift=result.freshness)
    if output:
        os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
        with open(output, "w", encoding="utf-8") as fh:
            if lines:
                fh.write("\n".join(lines) + "\n")
            else:
                fh.write(
                    f"cells: clean — {result.n_files} file(s), "
                    f"{result.n_roots} root(s), {result.n_writes} write(s)\n"
                )
    return 0 if result.clean else 1


def _epochs_run(seed: int, n_nodes: int, files_per_rank: int):
    """A small same-seed ``epochs``-style experiment as a trace runnable."""
    from ..dl import IMAGENET21K, ALL_MODELS
    from ..experiments import Scale, run_training

    scale = Scale(
        files_per_rank=files_per_rank,
        sim_batch_size=2,
        repetitions=1,
        procs_per_node=2,
        epochs_simulated=2,
    )

    def run(trace):
        run_training(
            "hvac2",
            ALL_MODELS["resnet50"],
            IMAGENET21K,
            n_nodes,
            scale,
            seed=seed,
            trace=trace,
        )

    return run


def run_determinism(
    seed: int = 0,
    n_nodes: int = 2,
    files_per_rank: int = 4,
    block: int = 2048,
    verbose: bool = True,
) -> int:
    """Run the epochs experiment twice with one seed; compare fingerprints."""
    run = _epochs_run(seed, n_nodes, files_per_rank)
    a = fingerprint_run(run, checkpoint_every=block)
    b = fingerprint_run(run, checkpoint_every=block)
    report = find_first_divergence(run, block=block, traces=(a, b))
    if report is None:
        if verbose:
            print(
                f"determinism: OK — two seed={seed} runs produced identical "
                f"event streams ({a.count} events, fingerprint {a.fingerprint})"
            )
        return 0
    print(f"determinism: FAILED (seed={seed})")
    print(report.describe())
    return 1


def run_races(
    seed: int = 0,
    n_nodes: int = 4,
    n_files: int = 12,
    output: str | None = None,
    verbose: bool = True,
) -> int:
    """Run the membership smoke scenario under the race sanitizer with
    two seeds (different jitter landscapes); report every same-timestamp
    shared-state conflict found."""
    from .races import membership_smoke

    reports: list[tuple[int, RaceReport]] = []
    for s in (seed, seed + 1):
        sanitizer = RaceSanitizer()
        membership_smoke(seed=s, n_nodes=n_nodes, n_files=n_files,
                         sanitizer=sanitizer)
        reports.extend((s, r) for r in sanitizer.reports)

    text_blocks = [
        f"[seed {s}] {r.describe()}" for s, r in reports
    ]
    for block_ in text_blocks:
        print(block_)
    if output:
        os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
        with open(output, "w", encoding="utf-8") as fh:
            if text_blocks:
                fh.write("\n\n".join(text_blocks) + "\n")
            else:
                fh.write(
                    f"races: clean — seeds {seed},{seed + 1}, "
                    f"{n_nodes} nodes, {n_files} files\n"
                )
    if verbose:
        status = "clean" if not reports else f"{len(reports)} race(s)"
        print(
            f"races: seeds {seed},{seed + 1} on the membership smoke "
            f"scenario — {status}"
        )
    return 1 if reports else 0


def run_check(
    paths: list[str] | None = None,
    lint_only: bool = False,
    determinism_only: bool = False,
    races_only: bool = False,
    seed: int = 0,
    n_nodes: int = 2,
    files_per_rank: int = 4,
    block: int = 2048,
    taint: bool = False,
    races: bool = False,
    races_output: str | None = None,
    perf: bool = False,
    cells: bool = False,
    cells_only: bool = False,
    cells_output: str | None = None,
) -> int:
    """The full ``repro check``: lint (+taint), optionally the hot-path
    analyzer (``--perf``), the shared-state audit (``--cells``), the
    double-run comparison, and optionally the sim-time race sanitizer.

    The static passes share one :class:`Program` over ``paths``: one
    parse per file, one call graph.  A path that does not exist, a
    named non-``.py`` file, or a file set with no ``.py`` file is a
    usage error (exit 2), so the gate cannot pass by checking nothing.
    """
    rc = 0
    if races_only:
        return run_races(seed=seed, output=races_output)
    if cells_only or not determinism_only:
        try:
            program = Program.read(paths or default_lint_roots())
        except ValueError as exc:
            print(f"repro check: error: {exc}", file=sys.stderr)
            return 2
    if cells_only:
        return run_cells(program, output=cells_output)
    if not determinism_only:
        rc |= run_lint(program, taint=taint)
        if perf:
            rc |= run_perf(program)
        if cells:
            rc |= run_cells(program, output=cells_output)
    if not lint_only:
        rc |= run_determinism(
            seed=seed,
            n_nodes=n_nodes,
            files_per_rank=files_per_rank,
            block=block,
        )
    if races:
        rc |= run_races(seed=seed, output=races_output)
    return rc
