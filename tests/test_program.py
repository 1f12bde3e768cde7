"""The shared front end of the static passes: one parse and one call
graph per ``repro check`` run, each file checked once, and no clean
verdict from a file set that holds no Python source."""

import ast
import os

import pytest

from repro.check import audit_tree, lint_tree, perf_lint_tree, run_check
from repro.check.callgraph import CallGraph
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures")

#: pass -> (tree entry point, a fixture it flags)
PASSES = {
    "lint": (lint_tree, "sim010_bad.py"),
    "perf": (perf_lint_tree, "perf105_bad.py"),
    "cells": (audit_tree, "race201_bad.py"),
}


def _fixture_files() -> list[str]:
    out = []
    for dirpath, dirnames, filenames in os.walk(FIXTURES):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        out += [os.path.join(dirpath, n) for n in filenames if n.endswith(".py")]
    return out


class TestEachFileOnce:
    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_file_named_twice(self, name):
        run, fixture = PASSES[name]
        path = os.path.join(FIXTURES, fixture)
        once = run([path])
        assert once.violations
        assert vars(run([path, path])) == vars(once)

    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_file_named_and_reached_through_its_directory(self, name):
        run, fixture = PASSES[name]
        path = os.path.join(FIXTURES, fixture)
        assert vars(run([FIXTURES, path])) == vars(run([FIXTURES]))


class TestUsageErrors:
    """A path that checks nothing is a usage error (exit 2), never a
    clean verdict."""

    def _rejected(self, capsys, *argv):
        assert main(["check", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "error" in err

    @pytest.mark.parametrize("flag", ["--lint-only", "--cells-only"])
    def test_missing_path(self, tmp_path, capsys, flag):
        self._rejected(capsys, flag, str(tmp_path / "no_such_dir"))

    def test_named_file_that_is_not_python(self, capsys):
        self._rejected(capsys, "--lint-only", os.path.join(REPO_ROOT, "README.md"))

    def test_directory_without_python_files(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("nothing to lint\n")
        self._rejected(capsys, "--lint-only", "--perf", "--cells", str(tmp_path))


def test_one_parse_and_one_call_graph_per_run(monkeypatch, capsys):
    """lint+taint, perf and cells share one parse of every file and one
    call graph."""
    parses: dict[str, int] = {}
    builds: list[type] = []
    real_parse = ast.parse
    real_build = CallGraph.build.__func__

    def parse(source, filename="<unknown>", *args, **kwargs):
        parses[filename] = parses.get(filename, 0) + 1
        return real_parse(source, filename, *args, **kwargs)

    def build(cls, files):
        builds.append(cls)
        return real_build(cls, files)

    monkeypatch.setattr(ast, "parse", parse)
    monkeypatch.setattr(CallGraph, "build", classmethod(build))
    rc = run_check([FIXTURES], lint_only=True, taint=True, perf=True, cells=True)
    capsys.readouterr()
    assert rc == 1  # the bad fixtures fail every pass
    counted = {p: n for p, n in parses.items() if p.startswith(FIXTURES)}
    assert counted == {p: 1 for p in _fixture_files()}
    assert len(builds) == 1
