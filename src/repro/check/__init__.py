"""``repro check`` — the determinism & sim-safety analyzer.

Four layers, all runnable from the CLI and from tests.  The static
ones, and the ``perf`` hot-path analyzer (:mod:`.perf`), share one
front end, :class:`Program` (:mod:`.program`): per run every file is
parsed once and walked once into a flat node list, only a file whose
text holds a waiver marker is tokenized for the waiver scan, and the
call graph is built once, on first use, with a dotted-suffix index for
its import resolution.

* **Static, per-function**: an AST lint pass (:mod:`.rules`,
  :mod:`.linter`) with repro-specific rules guarding the engine's
  bit-for-bit determinism contract (see docs/INTERNALS.md); the
  set-ordering rules share one unordered-value fact (:mod:`.unordered`).
* **Static, interprocedural**: a module-level call-graph + taint pass
  (:mod:`.callgraph`, :mod:`.taint`) that propagates nondeterminism
  primitives through helpers and across modules, reporting SIM011 at
  the sim-scope call site with the full source→sink chain
  (the ``taint`` pass).
* **Static, whole-program**: a shared-state audit (:mod:`.cells`,
  :mod:`.cell_registry`) that walks the call graph from every
  process-spawn root, finds attribute writes reachable from two or
  more concurrent roots, and diffs them against the race-sanitizer
  cells each module declares in its ``RACE_CELLS`` — proving the
  runtime sanitizer sees every shared mutable cell, and that every
  noted cell is declared (the ``cells`` pass).
* **Runtime**: event-stream fingerprinting
  (:class:`repro.simcore.EventTrace`) plus a double-run comparison
  that, on divergence, bisects to the first divergent kernel event
  (:mod:`.divergence`); and a sim-time race sanitizer (:mod:`.races`)
  that flags same-timestamp events whose order is decided only by heap
  insertion sequence yet touch the same shared-state cell
  (the ``races`` pass).

``repro check --passes`` takes a comma-separated list of
:data:`PASSES` (default: all but ``races``).  :func:`run_check` raises
``ValueError`` on bad input, which the CLI reports as
``repro check: error: <message>`` and exit 2, as for every command.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from ..simcore import CollectorPause
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
    "PASSES",
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


#: ``repro check``'s passes, in the order :func:`run_check` runs them
PASSES = ("lint", "taint", "perf", "cells", "determinism", "races")


def default_lint_roots() -> list[str]:
    """The in-tree source root, resolved from this package's location."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [pkg_root]  # .../src/repro


def _report(result, summary: str, drift: Sequence[str] = ()) -> list[str]:
    """Print a static pass's findings (violations, stale waivers, then
    any drift lines) and ``summary`` with the pass's status; return the
    findings printed."""
    lines = [v.render() for v in result.violations]
    lines += [w.render() for w in result.stale_waivers]
    lines += drift
    for line in lines:
        print(line)
    counts = (
        (result.violations, "violation(s)"),
        (result.stale_waivers, "stale waiver(s)"),
        (drift, "drift error(s)"),
    )
    status = ", ".join(f"{len(found)} {what}" for found, what in counts if found)
    print(f"{summary}, {status or 'clean'}")
    return lines


def run_lint(program: Program, taint: bool = False) -> int:
    """Lint ``program``; print violations + stale waivers; return exit code."""
    result = lint_program(program, taint=taint)
    name = "simlint+taint" if taint else "simlint"
    _report(result, f"{name}: {result.n_files} file(s) checked")
    return 0 if result.clean else 1


def run_perf(program: Program) -> int:
    """Run the hot-path analyzer; print findings; return exit code."""
    result = perf_lint_files(program)
    hot = "all functions hot" if result.all_hot else f"{result.n_hot} hot function(s)"
    _report(result, f"perf: {result.n_files} file(s) checked, {hot}")
    return 0 if result.clean else 1


def run_cells(program: Program, output: str | None = None) -> int:
    """Run the shared-state audit; print findings and drift between
    note sites and ``RACE_CELLS`` declarations; return exit code."""
    result = audit_files(program)
    summary = (
        f"cells: {result.n_files} file(s), {result.n_roots} concurrency "
        f"root(s), {result.n_writes} write site(s)"
    )
    lines = _report(result, summary, drift=result.freshness)
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
) -> int:
    """Run the epochs experiment twice with one seed; compare fingerprints."""
    run = _epochs_run(seed, n_nodes, files_per_rank)
    a = fingerprint_run(run, checkpoint_every=block)
    b = fingerprint_run(run, checkpoint_every=block)
    report = find_first_divergence(run, block=block, traces=(a, b))
    if report is None:
        print(
            f"determinism: OK — two seed={seed} runs produced identical "
            f"event streams ({a.count} events, fingerprint {a.fingerprint})"
        )
        return 0
    print(f"determinism: FAILED (seed={seed})")
    print(report.describe())
    return 1


def run_races(seed: int = 0, output: str | None = None) -> int:
    """Run the membership smoke scenario under the race sanitizer with
    two seeds (different jitter landscapes); report every same-timestamp
    shared-state conflict found."""
    from .races import SMOKE_FILES, SMOKE_NODES, membership_smoke

    reports: list[tuple[int, RaceReport]] = []
    for s in (seed, seed + 1):
        sanitizer = RaceSanitizer()
        membership_smoke(seed=s, sanitizer=sanitizer)
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
                    f"{SMOKE_NODES} nodes, {SMOKE_FILES} files\n"
                )
    status = "clean" if not reports else f"{len(reports)} race(s)"
    print(
        f"races: seeds {seed},{seed + 1} on the membership smoke "
        f"scenario — {status}"
    )
    return 1 if reports else 0


def run_check(
    paths: list[str] | None,
    passes: Sequence[str],
    seed: int = 0,
    n_nodes: int = 2,
    files_per_rank: int = 4,
    block: int = 2048,
    races_output: str | None = None,
    cells_output: str | None = None,
) -> int:
    """The full ``repro check``: run each of ``passes`` in
    :data:`PASSES` order (``taint`` is simlint with its taint pass, so
    it implies ``lint``); return 1 if any failed.

    The static passes share one :class:`Program` over ``paths``: one
    parse per file, one call graph, and one collector pause from the
    parse through the last of them; with none selected no program is
    read.  An empty or unknown pass list, a path that does not exist, a
    named non-``.py`` file, or a file set with no ``.py`` file raises
    ``ValueError``, so the gate cannot pass by checking nothing.
    """
    selected = set(passes)
    if not selected or not selected <= set(PASSES):
        raise ValueError(
            f"passes must name one or more of {', '.join(PASSES)}; "
            f"got {','.join(passes)!r}"
        )
    rc = 0
    if selected & {"lint", "taint", "perf", "cells"}:
        with CollectorPause():
            program = Program.read(paths or default_lint_roots())
            if selected & {"lint", "taint"}:
                rc |= run_lint(program, taint="taint" in selected)
            if "perf" in selected:
                rc |= run_perf(program)
            if "cells" in selected:
                rc |= run_cells(program, output=cells_output)
    if "determinism" in selected:
        rc |= run_determinism(
            seed=seed,
            n_nodes=n_nodes,
            files_per_rank=files_per_rank,
            block=block,
        )
    if "races" in selected:
        rc |= run_races(seed=seed, output=races_output)
    return rc
