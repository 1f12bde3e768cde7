"""File walking, scope classification, and inline waivers for simlint.

Usage::

    from repro.check import lint_paths
    violations = lint_paths(["src"])

A violation can be silenced at the offending line (or the line directly
above it) with an explicit, reasoned waiver::

    gen = np.random.default_rng(s)  # simlint: waive SIM002 -- sanctioned site

``# simlint: waive`` with no codes waives every rule on that line; a
comma-separated code list waives only those.  Waivers are deliberately
loud in the diff — the acceptance bar is "fixed or explicitly waived",
never silently ignored.  To keep them from rotting, :func:`lint_tree`
also reports *stale* waivers: comments that no longer suppress any
violation (``repro check`` exits nonzero on them).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Iterable

from .rules import RULES, Violation, collect_violations

__all__ = [
    "StaleWaiver",
    "TreeLint",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "read_sources",
    "scope_of",
    "waived_at",
]

_WAIVE_RE = re.compile(r"#\s*simlint:\s*waive\b([^#\n]*)")
_CODE_RE = re.compile(r"SIM\d{3}")

#: package path fragments whose code legitimately touches real clocks,
#: threads, and files — SIM001/SIM007 do not apply there
_RUNTIME_PARTS = ("runtime", "posix")

#: directories never descended into
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}


def scope_of(path: str) -> str:
    """``"runtime"`` for real-clock/thread packages, else ``"sim"``."""
    parts = os.path.normpath(path).split(os.sep)
    return "runtime" if any(p in _RUNTIME_PARTS for p in parts) else "sim"


def _waived_codes(
    line: str,
    waive_re: re.Pattern = _WAIVE_RE,
    code_re: re.Pattern = _CODE_RE,
) -> set[str] | None:
    """Codes waived by ``line``'s comment: a set, ``{"*"}`` for all,
    or ``None`` when there is no waiver.

    The regex pair parameterizes the waiver dialect so other passes
    (``# perf: waive PERFxxx`` in :mod:`.perf`) reuse the same
    machinery — including stale-waiver detection — without colliding
    with simlint's namespace.
    """
    m = waive_re.search(line)
    if m is None:
        return None
    codes = set(code_re.findall(m.group(1)))
    return codes or {"*"}


def _waiver_line_for(
    lines: list[str],
    line: int,
    rule: str,
    waive_re: re.Pattern = _WAIVE_RE,
    code_re: re.Pattern = _CODE_RE,
) -> int | None:
    """The line number whose waiver covers ``rule`` at ``line``
    (the flagged line itself, or a comment-only line above), or None."""
    for lineno in (line, line - 1):
        if not 1 <= lineno <= len(lines):
            continue
        text = lines[lineno - 1]
        if lineno != line and not text.lstrip().startswith("#"):
            continue
        codes = _waived_codes(text, waive_re, code_re)
        if codes is not None and ("*" in codes or rule in codes):
            return lineno
    return None


def waived_at(lines: list[str], line: int, rule: str) -> bool:
    """Is ``rule`` waived at ``line``?  (Taint-source suppression hook:
    a waived primitive is a sanctioned site, never a taint source.)"""
    return _waiver_line_for(lines, line, rule) is not None


def _apply_waivers(
    violations: list[Violation],
    lines: list[str],
    waive_re: re.Pattern = _WAIVE_RE,
    code_re: re.Pattern = _CODE_RE,
) -> tuple[list[Violation], set[int]]:
    """Drop waived violations; also return the waiver lines that fired
    (so :func:`lint_tree` can flag the ones that did not)."""
    kept = []
    used: set[int] = set()
    for v in violations:
        waiver_line = _waiver_line_for(lines, v.line, v.rule, waive_re, code_re)
        if waiver_line is None:
            kept.append(v)
        else:
            used.add(waiver_line)
    return kept, used


def _waiver_comment_lines(
    source: str,
    waive_re: re.Pattern = _WAIVE_RE,
    code_re: re.Pattern = _CODE_RE,
) -> dict[int, set[str]]:
    """Every *real* comment carrying a waiver: ``line -> codes``.

    Tokenize-based so waiver syntax quoted inside docstrings (this
    file's own docstring, for one) is not mistaken for a live waiver.
    Falls back to a regex scan if the file does not tokenize.
    """
    out: dict[int, set[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                codes = _waived_codes(tok.string, waive_re, code_re)
                if codes is not None:
                    out[tok.start[0]] = codes
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for i, line in enumerate(source.splitlines(), start=1):
            codes = _waived_codes(line, waive_re, code_re)
            if codes is not None:
                out[i] = codes
    return out


def lint_source(
    source: str,
    path: str = "<string>",
    scope: str | None = None,
    rules: Iterable[str] | None = None,
) -> list[Violation]:
    """Lint one module's source text (the fixture-test entry point).

    Includes the *single-module* interprocedural taint pass (SIM011 for
    helpers defined in the same file); ``repro check --taint`` widens
    that to the whole tree.
    """
    active = set(rules) if rules is not None else set(RULES)
    scope_ = scope or scope_of(path)
    tree = ast.parse(source, filename=path)
    violations = collect_violations(tree, path, scope=scope_, rules=active)
    if active & {"SIM011", "SIM013", "SIM014"}:
        from .taint import module_taint_violations

        violations += [
            v
            for v in module_taint_violations(path, source, tree, scope_)
            if v.rule in active
        ]
    violations, _ = _apply_waivers(violations, source.splitlines())
    violations.sort(key=lambda v: (v.line, v.col, v.rule))
    return violations


def lint_file(path: str, rules: Iterable[str] | None = None) -> list[Violation]:
    with open(path, encoding="utf-8") as fh:
        return lint_source(fh.read(), path=path, rules=rules)


def read_sources(paths: Iterable[str]) -> list[tuple[str, str]]:
    """``(path, source)`` for every ``.py`` file under the given
    files/directories, in a stable walk order."""
    out: list[tuple[str, str]] = []
    for root in paths:
        found = [root] if os.path.isfile(root) else []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            found += [
                os.path.join(dirpath, n) for n in sorted(filenames) if n.endswith(".py")
            ]
        for path in found:
            with open(path, encoding="utf-8") as fh:
                out.append((path, fh.read()))
    return out


@dataclass(frozen=True)
class StaleWaiver:
    """An inline waiver that no longer suppresses anything."""

    path: str
    line: int
    codes: frozenset[str]  #: waived codes (``{"*"}`` for a bare waiver)

    def render(self) -> str:
        what = "all rules" if "*" in self.codes else ", ".join(sorted(self.codes))
        return (
            f"{self.path}:{self.line}: stale waiver ({what}) — "
            "suppresses no violation; remove it or fix the code it excuses"
        )


@dataclass
class TreeLint:
    """The result of linting a file set: violations + waiver hygiene."""

    violations: list[Violation]
    stale_waivers: list[StaleWaiver]
    n_files: int

    @property
    def clean(self) -> bool:
        return not self.violations and not self.stale_waivers


def lint_tree(
    paths: Iterable[str],
    rules: Iterable[str] | None = None,
    taint: bool = False,
) -> TreeLint:
    """Lint every ``.py`` file under ``paths``.

    With ``taint=True`` the interprocedural pass runs over the *whole*
    file set at once, so SIM011 crosses module boundaries.  Stale-waiver
    detection only runs with the full rule set (a subset run would
    mis-flag waivers for the rules it skipped); waivers naming SIM011
    are likewise exempt when the cross-module pass is off.
    """
    active = set(rules) if rules is not None else set(RULES)
    unknown = active - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule codes: {sorted(unknown)}")

    files = [
        (path, source, ast.parse(source, filename=path))
        for path, source in read_sources(paths)
    ]

    per_file: dict[str, list[Violation]] = {}
    for path, _, tree in files:
        per_file[path] = collect_violations(
            tree, path, scope=scope_of(path), rules=active
        )
    if active & {"SIM011", "SIM013", "SIM014"}:
        if taint:
            from .taint import build_graph, taint_violations

            for v in taint_violations(build_graph(files)):
                if v.rule in active:
                    per_file[v.path].append(v)
        else:
            from .taint import module_taint_violations

            for path, source, tree in files:
                per_file[path].extend(
                    v
                    for v in module_taint_violations(path, source, tree, scope_of(path))
                    if v.rule in active
                )

    violations: list[Violation] = []
    stale: list[StaleWaiver] = []
    check_stale = rules is None
    for path, source, _ in files:
        lines = source.splitlines()
        kept, used = _apply_waivers(per_file[path], lines)
        kept.sort(key=lambda v: (v.line, v.col, v.rule))
        violations.extend(kept)
        if not check_stale:
            continue
        for lineno, codes in sorted(_waiver_comment_lines(source).items()):
            if lineno in used:
                continue
            if not taint and codes & {"SIM011", "SIM013", "SIM014"}:
                continue  # only the cross-module pass can consume it
            stale.append(StaleWaiver(path, lineno, frozenset(codes)))
    return TreeLint(violations, stale, n_files=len(files))


def lint_paths(
    paths: Iterable[str],
    rules: Iterable[str] | None = None,
    taint: bool = False,
) -> list[Violation]:
    """Lint every ``.py`` file under the given files/directories."""
    return lint_tree(paths, rules=rules, taint=taint).violations
