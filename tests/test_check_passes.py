"""``repro check --passes``: one list picks the passes.

The list replaced eight on/off switches (``--lint-only``,
``--determinism-only``, ``--taint``, ``--perf``, ``--cells``,
``--cells-only``, ``--races``, ``--races-only``).  The parity table
below holds every static spelling CI and the docs used, next to its
``--passes`` spelling; :func:`_flag_check` is what the switches did,
composed from the same pass runners, so each row checks that the new
spelling prints the same findings and exits with the same code.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro.check as check
from repro.check import PASSES, Program, run_cells, run_check, run_lint, run_perf
from repro.cli import DEFAULT_PASSES, build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures")


def _flag_check(paths, taint=False, perf=False, cells=False, cells_only=False):
    """The static part of ``repro check --lint-only [--taint] [--perf]
    [--cells]`` (or ``--cells-only``) as the switches ran it."""
    try:
        program = Program.read(paths)
    except ValueError as exc:
        print(f"repro check: error: {exc}", file=sys.stderr)
        return 2
    if cells_only:
        return run_cells(program)
    rc = run_lint(program, taint=taint)
    if perf:
        rc |= run_perf(program)
    if cells:
        rc |= run_cells(program)
    return rc


def _fx(*names: str) -> list[str]:
    return [os.path.join(FIXTURES, n) for n in names]


#: (old switches, ``--passes`` value, paths, exit code)
PARITY = [
    ({"perf": True, "cells": True}, "lint,perf,cells", [FIXTURES], 1),
    ({"perf": True}, "lint,perf", _fx("perf105_bad.py"), 1),
    ({"cells_only": True}, "cells", _fx("race201_bad.py"), 1),
    ({"cells_only": True}, "cells", _fx("race201_good.py"), 0),
    ({}, "lint", _fx("waiver_stale_bad.py"), 1),
    ({"perf": True}, "lint,perf", _fx("perf104_bad.py"), 1),
    ({"perf": True}, "lint,perf", _fx("perf104_good.py"), 0),
    ({}, "lint", _fx("sim010_bad.py"), 1),
    ({}, "lint", _fx("sim010_good.py"), 0),
    ({"taint": True}, "taint", _fx("taint_caller.py", "runtime"), 1),
    ({"taint": True}, "lint,taint", _fx("taint_caller.py", "runtime"), 1),
    ({}, "lint", _fx("taint_caller.py", "runtime"), 0),
    ({}, "lint", ["no_such_dir"], 2),
    ({"cells_only": True}, "cells", ["no_such_dir"], 2),
]


@pytest.mark.parametrize(
    "flags, passes, paths, code", PARITY,
    ids=[f"{p}-{os.path.basename(paths[0])}" for _, p, paths, _ in PARITY],
)
def test_passes_spelling_matches_the_old_switches(flags, passes, paths, code, capsys):
    assert _flag_check(paths, **flags) == code
    old = capsys.readouterr()
    assert main(["check", "--passes", passes, *paths]) == code
    assert capsys.readouterr() == old


def test_default_is_the_ci_gate():
    """``repro check`` with no ``--passes`` runs what CI ran as
    ``--taint --perf --cells`` (lint and determinism were always on);
    ``races`` stays opt-in."""
    assert build_parser().parse_args(["check"]).passes == DEFAULT_PASSES
    assert DEFAULT_PASSES.split(",") == [p for p in PASSES if p != "races"]


@pytest.mark.parametrize("passes", [["determinism"], ["races"]])
def test_no_program_is_read_without_a_static_pass(passes, monkeypatch):
    ran = []
    monkeypatch.setattr(check, "run_determinism", lambda **kw: ran.append("d") or 0)
    monkeypatch.setattr(check, "run_races", lambda **kw: ran.append("r") or 0)

    def read(paths):
        raise AssertionError("read a program")

    monkeypatch.setattr(Program, "read", staticmethod(read))
    assert run_check(["no_such_dir"], passes) == 0
    assert ran == [passes[0][0]]


def test_passes_run_in_table_order_whatever_the_list_order(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(check, "run_determinism", lambda **kw: ran.append("d") or 0)
    rc = run_check(_fx("sim010_good.py"), ["determinism", "cells", "lint"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0 and ran == ["d"]
    assert [line.split(":")[0] for line in out] == ["simlint", "cells"]


def test_an_empty_pass_list_raises_before_any_pass(capsys):
    # the CLI cases (bogus, "", "lint,bogus") are in test_cli.py
    with pytest.raises(ValueError, match="passes must name one or more of"):
        run_check(_fx("sim010_bad.py"), [])
    assert capsys.readouterr().out == ""
