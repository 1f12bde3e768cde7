"""The front end every static ``repro check`` pass shares.

A :class:`Program` is one file set, read and parsed once.  simlint
(:func:`.linter.lint_program`), the hot-path analyzer
(:func:`.perf.perf_lint_files`) and the shared-state audit
(:func:`.cells.audit_files`) all take one, so ``repro check --taint
--perf --cells`` parses each file once, tokenizes its comments once and
builds the module-level call graph (:mod:`.callgraph`) once.

It also owns the inline waivers of all three passes.  Each pass has its
own dialect — ``simlint``, ``perf`` or ``race`` before ``: waive``
(examples in :mod:`.linter`, :mod:`.perf` and :mod:`.cells`) — so a
waiver for one never silences another.  A waiver covers its own line,
or the line below when it stands alone on a comment line; with no codes
it waives every rule of its dialect.  Waivers are deliberately loud in
the diff — the acceptance bar is "fixed or explicitly waived", never
silently ignored.  :meth:`Program.waive` drops the findings a waiver
covers and reports the *stale* waivers, the ones that suppress nothing,
so they cannot rot (``repro check`` exits nonzero on them).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .rules import Violation

__all__ = ["Program", "SourceFile", "StaleWaiver", "scope_of", "waived_at"]

#: package path fragments whose code legitimately touches real clocks,
#: threads, and files — SIM001/SIM007 do not apply there
_RUNTIME_PARTS = ("runtime",)

#: directories never descended into
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}

#: waiver dialect -> (waiver comment regex, rule code regex)
_DIALECTS = {
    dialect: (
        re.compile(rf"#\s*{dialect}:\s*waive\b([^#\n]*)"),
        re.compile(rf"{prefix}\d{{3}}"),
    )
    for dialect, prefix in (("simlint", "SIM"), ("perf", "PERF"), ("race", "RACE"))
}


def scope_of(path: str) -> str:
    """``"runtime"`` for real-clock/thread packages, else ``"sim"``."""
    parts = os.path.normpath(path).split(os.sep)
    return "runtime" if any(p in _RUNTIME_PARTS for p in parts) else "sim"


def _waived_codes(text: str, dialect: str) -> set[str] | None:
    """Codes ``text``'s ``dialect`` waiver names: a set, ``{"*"}`` for
    all, or ``None`` when there is no waiver."""
    waive_re, code_re = _DIALECTS[dialect]
    m = waive_re.search(text)
    if m is None:
        return None
    return set(code_re.findall(m.group(1))) or {"*"}


def _waiver_line_for(lines: list[str], line: int, rule: str, dialect: str) -> int | None:
    """The line number whose waiver covers ``rule`` at ``line``
    (the flagged line itself, or a comment-only line above), or None."""
    for lineno in (line, line - 1):
        if not 1 <= lineno <= len(lines):
            continue
        text = lines[lineno - 1]
        if lineno != line and not text.lstrip().startswith("#"):
            continue
        codes = _waived_codes(text, dialect)
        if codes is not None and ("*" in codes or rule in codes):
            return lineno
    return None


def waived_at(lines: list[str], line: int, rule: str) -> bool:
    """Is simlint ``rule`` waived at ``line``?  (The taint-source hook:
    a waived primitive is a sanctioned site, never a taint source.)"""
    return _waiver_line_for(lines, line, rule, "simlint") is not None


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


class SourceFile:
    """One module of a :class:`Program`: its text, lines, tree and scope."""

    def __init__(self, path: str, source: str, scope: str):
        self.path = path
        self.source = source
        self.scope = scope
        self.tree = ast.parse(source, filename=path)

    @cached_property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    @cached_property
    def comments(self) -> dict[int, str]:
        """Every real comment, ``line -> text``.  Tokenize-based, so
        waiver syntax quoted inside a docstring is not mistaken for a
        live waiver; every line counts when the file does not tokenize."""
        try:
            return {
                tok.start[0]: tok.string
                for tok in tokenize.generate_tokens(io.StringIO(self.source).readline)
                if tok.type == tokenize.COMMENT
            }
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return dict(enumerate(self.lines, start=1))


class Program:
    """A file set, parsed once and shared by every static pass."""

    def __init__(self, files: Iterable[tuple[str, str]], scope: str | None = None):
        """``files`` is ``(path, source)`` pairs; ``scope`` overrides
        :func:`scope_of` for every file."""
        self.files = [
            SourceFile(path, source, scope or scope_of(path)) for path, source in files
        ]

    @classmethod
    def read(cls, paths: Iterable[str]) -> Program:
        """Every ``.py`` file under the given files/directories, in a
        stable walk order, each file once however often it is reached.

        A missing path, a named file that is not ``.py``, and a set with
        no ``.py`` file at all raise :class:`ValueError`: checking zero
        files must never pass for a clean verdict.
        """
        paths = list(paths)
        found: dict[str, str] = {}  #: real path -> path as first reached
        for root in paths:
            if not os.path.exists(root):
                raise ValueError(f"{root}: no such file or directory")
            if os.path.isfile(root):
                if not root.endswith(".py"):
                    raise ValueError(f"{root}: not a Python source file")
                found.setdefault(os.path.realpath(root), root)
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        path = os.path.join(dirpath, name)
                        found.setdefault(os.path.realpath(path), path)
        if not found:
            raise ValueError(f"no .py file under {' '.join(paths) or '(no paths)'}")
        sources = []
        for path in found.values():
            with open(path, encoding="utf-8") as fh:
                sources.append((path, fh.read()))
        return cls(sources)

    @cached_property
    def graph(self):
        """The module-level :class:`.callgraph.CallGraph`, built on
        first use.  Waivers only drop taint sources and the SIM013/SIM014
        producer flags, never call edges, so the graph the taint pass
        needs serves the hot-set and shared-state walks too."""
        from . import taint

        return taint.build_graph(self.files)

    def waive(
        self,
        found: Iterable[Violation],
        dialect: str,
        judge: Callable[[set[str]], bool] = lambda codes: True,
    ) -> tuple[list[Violation], list[StaleWaiver]]:
        """Drop the findings a ``dialect`` waiver covers, and list the
        waivers that covered none.

        Kept findings come file by file, each file's in (line, col,
        rule) order.  An unused waiver is stale only if ``judge(codes)``
        holds: a pass that skipped some rules cannot tell whether the
        waivers naming them still fire.
        """
        by_path: dict[str, list[Violation]] = {}
        for v in found:
            by_path.setdefault(v.path, []).append(v)
        kept: list[Violation] = []
        stale: list[StaleWaiver] = []
        for f in self.files:
            used: set[int] = set()
            for v in sorted(by_path.get(f.path, ()), key=lambda v: (v.line, v.col, v.rule)):
                lineno = _waiver_line_for(f.lines, v.line, v.rule, dialect)
                if lineno is None:
                    kept.append(v)
                else:
                    used.add(lineno)
            for lineno, text in f.comments.items():
                codes = _waived_codes(text, dialect)
                if codes is not None and lineno not in used and judge(codes):
                    stale.append(StaleWaiver(f.path, lineno, frozenset(codes)))
        return kept, stale
