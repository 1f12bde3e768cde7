"""simlint over a :class:`.program.Program`, with waiver hygiene.

Usage::

    from repro.check import lint_tree
    result = lint_tree(["src"], taint=True)
    for v in result.violations + result.stale_waivers:
        print(v.render())

A violation can be silenced at the offending line (or the line directly
above it) with an explicit, reasoned waiver::

    gen = np.random.default_rng(s)  # simlint: waive SIM002 -- sanctioned site

``# simlint: waive`` with no codes waives every rule on that line; a
comma-separated code list waives only those.  :func:`lint_program` also
reports *stale* waivers: comments that no longer suppress any violation
(``repro check`` exits nonzero on them).  The waiver machinery itself
is shared with the other passes and lives in :mod:`.program`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..simcore import CollectorPause
from .program import Program, StaleWaiver
from .rules import RULES, Violation, collect_violations

__all__ = ["TreeLint", "lint_program", "lint_source", "lint_tree"]

#: rules the interprocedural pass reports; only the ``taint`` pass sees them
#: cross module boundaries
_CROSS_MODULE = {"SIM011", "SIM013"}


@dataclass
class TreeLint:
    """The result of linting a file set: violations + waiver hygiene."""

    violations: list[Violation]
    stale_waivers: list[StaleWaiver]
    n_files: int

    @property
    def clean(self) -> bool:
        return not self.violations and not self.stale_waivers


def lint_program(
    program: Program,
    rules: Iterable[str] | None = None,
    taint: bool = False,
) -> TreeLint:
    """Lint every file of ``program``.

    With ``taint=True`` the interprocedural pass runs over the *whole*
    file set at once, so SIM011 crosses module boundaries; without it,
    each module is its own call graph.  Stale-waiver detection only
    runs with the full rule set (a subset run would mis-flag waivers
    for the rules it skipped); waivers naming SIM011/SIM013 are
    likewise exempt when the cross-module pass is off.
    """
    active = set(rules) if rules is not None else set(RULES)
    unknown = active - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule codes: {sorted(unknown)}")

    found: list[Violation] = []
    for f in program.files:
        found += collect_violations(f.tree, f.path, scope=f.scope, rules=active)
    if active & _CROSS_MODULE:
        from . import taint as taint_pass

        if taint:
            flows = taint_pass.taint_violations(program.graph)
        else:
            flows = [
                v for f in program.files for v in taint_pass.module_taint_violations(f)
            ]
        found += [v for v in flows if v.rule in active]

    def judge(codes: set[str]) -> bool:
        return rules is None and (taint or not codes & _CROSS_MODULE)

    violations, stale = program.waive(found, "simlint", judge)
    return TreeLint(violations, stale, n_files=len(program.files))


def lint_tree(paths: Iterable[str], taint: bool = False) -> TreeLint:
    """Lint every ``.py`` file under the given files/directories with
    every rule, the collector paused from the parse through the last
    pass."""
    with CollectorPause():
        return lint_program(Program.read(paths), taint=taint)


def lint_source(
    source: str,
    path: str = "<string>",
    scope: str | None = None,
    rules: Iterable[str] | None = None,
) -> list[Violation]:
    """Lint one module's source text (the fixture-test entry point),
    in ``scope`` if given.  The taint pass is the single-module one, so
    SIM011 covers helpers defined in the same file."""
    return lint_program(Program([(path, source)], scope=scope), rules=rules).violations
