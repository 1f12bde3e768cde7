"""The shared front end of the static passes: one parse and one call
graph per ``repro check`` run, each file checked once, and no clean
verdict from a file set that holds no Python source."""

import ast
import gc
import os
import re
import tokenize
import weakref

import pytest

from repro.check import audit_tree, lint_tree, perf_lint_tree, run_check
from repro.check.callgraph import CallGraph
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures")
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")

#: pass -> (tree entry point, a fixture it flags)
PASSES = {
    "lint": (lint_tree, "sim010_bad.py"),
    "perf": (perf_lint_tree, "perf105_bad.py"),
    "cells": (audit_tree, "race201_bad.py"),
}


def _py_files(root: str) -> list[str]:
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        out += [os.path.join(dirpath, n) for n in filenames if n.endswith(".py")]
    return out


def _fixture_files() -> list[str]:
    return _py_files(FIXTURES)


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

    @pytest.mark.parametrize("passes", ["lint", "cells"])
    def test_missing_path(self, tmp_path, capsys, passes):
        self._rejected(capsys, "--passes", passes, str(tmp_path / "no_such_dir"))

    def test_named_file_that_is_not_python(self, capsys):
        self._rejected(capsys, "--passes", "lint", os.path.join(REPO_ROOT, "README.md"))

    def test_directory_without_python_files(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("nothing to lint\n")
        self._rejected(capsys, "--passes", "lint,perf,cells", str(tmp_path))


@pytest.mark.parametrize(
    "head", [b"\xef\xbb\xbf", b"# -*- coding: latin-1 -*-\n"], ids=["bom", "cookie"]
)
def test_source_read_as_python_decodes_it(tmp_path, head):
    """A UTF-8 BOM or a PEP 263 coding cookie is honoured, as ``python``
    honours it, and line numbers stay those of the file."""
    path = tmp_path / "encoded.py"
    body = "import time\n\nLABEL = '\u00e9'\n\n\ndef f():\n    time.sleep(1)\n"
    path.write_bytes(head + body.encode("latin-1" if b"latin" in head else "utf-8"))
    line = body.count("\n") + head.count(b"\n")
    assert [(v.rule, v.line) for v in lint_tree([str(path)]).violations] == [("SIM007", line)]


class TestUnparseable:
    """A file that does not parse is a usage error (exit 2) naming the
    file and line, never a traceback under the "violations found" code."""

    CASES = {
        "syntax": (b"x = 1\ndef f(:\n", 2),
        "undecodable": (b"x = 1\ny = '\xff'\n", 2),
        "unknown_cookie": (b"# -*- coding: no-such-codec -*-\n", 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_check(self, tmp_path, capsys, case):
        data, line = self.CASES[case]
        path = tmp_path / "bad.py"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            run_check([str(path)], ["lint", "perf", "cells"])
        out, err = capsys.readouterr()
        assert out == "" and err == ""
        assert str(exc.value).startswith(f"{path}:{line}: cannot parse: ")
        assert len(str(exc.value).splitlines()) == 1

    def test_cli(self, tmp_path, capsys):
        (tmp_path / "good.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text("def f(:\n")
        assert main(["check", "--passes", "lint", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"repro check: error: {tmp_path / 'bad.py'}:1: cannot parse: invalid syntax\n"


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
    rc = run_check([FIXTURES], ["taint", "perf", "cells"])
    capsys.readouterr()
    assert rc == 1  # the bad fixtures fail every pass
    counted = {p: n for p, n in parses.items() if p.startswith(FIXTURES)}
    assert counted == {p: 1 for p in _fixture_files()}
    assert len(builds) == 1


def test_only_files_holding_a_waiver_marker_are_tokenized(monkeypatch):
    """The stale-waiver scan tokenizes a file only when some waiver
    dialect's marker appears in its text."""
    calls: list[object] = []
    real = tokenize.generate_tokens

    def generate_tokens(readline):
        calls.append(readline)
        return real(readline)

    monkeypatch.setattr(tokenize, "generate_tokens", generate_tokens)
    lint_tree([SRC_ROOT], taint=True)
    marker = re.compile(r"(simlint|perf|race):\s*waive")
    files = _py_files(SRC_ROOT)
    marked = 0
    for path in files:
        with open(path, encoding="utf-8") as fh:
            marked += marker.search(fh.read()) is not None
    assert 0 < len(calls) == marked < len(files)


def test_no_parsed_tree_outlives_its_program(monkeypatch):
    """Nothing a pass caches per tree (the unordered-value fact, the
    flat node list) keeps the tree alive once the run's results go."""
    trees: list[weakref.ref] = []
    real_parse = ast.parse

    def parse(source, filename="<unknown>", *args, **kwargs):
        tree = real_parse(source, filename, *args, **kwargs)
        if filename.startswith(FIXTURES):
            trees.append(weakref.ref(tree))
        return tree

    monkeypatch.setattr(ast, "parse", parse)
    results = [run([FIXTURES]) for run, _ in PASSES.values()]
    assert all(r.violations for r in results)
    assert len(trees) == len(PASSES) * len(_fixture_files())
    del results
    gc.collect()
    assert [ref for ref in trees if ref() is not None] == []
