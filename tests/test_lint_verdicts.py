"""Pinned simlint verdicts for every fixture and test snippet.

Each simlint fixture file under ``tests/fixtures`` and each inline
snippet in ``tests/test_simlint.py`` is linted three ways: by
``lint_source`` in sim scope, by ``lint_source`` in runtime scope, and
as a one-file tree by ``lint_tree(..., taint=True)``.  The full
verdict (rule, line, column and message of every violation, plus any
stale waiver) is a property of the code, so a refactor of the rule
machinery must reproduce it exactly.  The pins live in
``tests/lint_verdicts.json``; a deliberate verdict change re-records
them with::

    PYTHONPATH=src python tests/test_lint_verdicts.py
"""

import ast
import json
import os
import sys

import pytest

from repro.check import lint_source, lint_tree

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
PINS = os.path.join(HERE, "lint_verdicts.json")

#: calls in test_simlint.py whose first argument is a snippet
_SNIPPET_CALLS = ("codes", "lint_source", "write_text")


def fixture_files() -> list[str]:
    """The simlint fixture modules, by name relative to ``FIXTURES``."""
    names = sorted(
        n for n in os.listdir(FIXTURES)
        if n.startswith("sim") and n.endswith(".py")
    )
    return names + ["taint_caller.py", os.path.join("runtime", "clockutil.py")]


def simlint_snippets() -> list[str]:
    """Every string literal ``tests/test_simlint.py`` lints: the values
    of the per-rule fixture dicts, ``src = ...`` bindings, and the first
    argument of ``codes``/``lint_source``/``write_text`` calls."""
    with open(os.path.join(HERE, "test_simlint.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "src" in names:
                found.append(node.value)
            elif any(n.endswith("_FIXTURES") for n in names) and isinstance(
                node.value, ast.Dict
            ):
                found.extend(node.value.values)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in _SNIPPET_CALLS:
                found.append(node.args[0])
    out: list[str] = []
    for expr in found:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            if expr.value not in out:
                out.append(expr.value)
    return out


def _row(v) -> list:
    return [v.rule, v.line, v.col, v.message]


def verdicts(source: str, tmp_dir: str, name: str = "snippet.py") -> dict:
    """The three pinned verdicts of one module's source."""
    path = os.path.join(tmp_dir, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source)
    tree = lint_tree([path], taint=True)
    return {
        "sim": [_row(v) for v in lint_source(source, scope="sim")],
        "runtime": [_row(v) for v in lint_source(source, scope="runtime")],
        "tree_taint": [_row(v) for v in tree.violations]
        + [["stale", w.line, sorted(w.codes)] for w in tree.stale_waivers],
    }


def _cross_module(tmp_dir: str) -> list:
    """``taint_caller.py`` linted together with its runtime helper."""
    paths = [os.path.join(FIXTURES, n) for n in fixture_files()[-2:]]
    tree = lint_tree(paths, taint=True)
    return [[os.path.basename(v.path), *_row(v)] for v in tree.violations]


def _load() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def record(tmp_dir: str) -> dict:
    pins: dict = {"fixtures": {}, "snippets": [], "cross_module": None}
    for name in fixture_files():
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            source = fh.read()
        pins["fixtures"][name] = verdicts(source, tmp_dir, name)
    for i, source in enumerate(simlint_snippets()):
        pins["snippets"].append(
            {"source": source, **verdicts(source, tmp_dir, f"s{i}/snippet.py")}
        )
    pins["cross_module"] = _cross_module(tmp_dir)
    return pins


# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pins():
    return _load()


@pytest.mark.parametrize("name", fixture_files())
def test_fixture_verdicts_match_pin(name, pins, tmp_path):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        source = fh.read()
    assert verdicts(source, str(tmp_path), name) == pins["fixtures"][name]


def test_snippet_verdicts_match_pin(pins, tmp_path):
    for i, pin in enumerate(pins["snippets"]):
        got = verdicts(pin["source"], str(tmp_path), f"s{i}/snippet.py")
        want = {k: pin[k] for k in ("sim", "runtime", "tree_taint")}
        assert got == want, pin["source"]


def test_every_simlint_snippet_is_pinned(pins):
    pinned = {pin["source"] for pin in pins["snippets"]}
    missing = [s for s in simlint_snippets() if s not in pinned]
    assert missing == []


def test_cross_module_verdict_matches_pin(pins, tmp_path):
    assert _cross_module(str(tmp_path)) == pins["cross_module"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = record(tmp)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"{PINS}: {len(data['fixtures'])} fixtures, "
          f"{len(data['snippets'])} snippets", file=sys.stderr)
