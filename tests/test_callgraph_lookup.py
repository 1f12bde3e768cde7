"""The call graph's indexed module lookup against the linear scan it
replaced: the same module, or ``None``, for every dotted suffix a
resolution can ask about."""

import os

import pytest

from repro.check import Program

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = {
    "src": os.path.join(REPO_ROOT, "src", "repro"),
    "fixtures": os.path.join(REPO_ROOT, "tests", "fixtures"),
}


def scan_find_module(modules: dict, dotted: str):
    """The reference: exact key, the package ``__init__``, then a scan of
    every module for the one whose name ends in the suffix."""
    for candidate in (dotted, f"{dotted}.__init__"):
        if candidate in modules:
            return modules[candidate]
    tail = "." + dotted
    init_tail = tail + ".__init__"
    hits = [
        m for name, m in modules.items()
        if name.endswith(tail) or name.endswith(init_tail)
    ]
    return hits[0] if len(hits) == 1 else None


def queries(modules: dict) -> list[str]:
    """Every dotted suffix of every module name, each package's name
    without its ``__init__``, and a few that name nothing or too much."""
    out = {"__init__", "no_such_module", "check.no_such_module"}
    for name in modules:
        parts = name.split(".")
        out.update(".".join(parts[i:]) for i in range(len(parts)))
        if parts[-1] == "__init__":
            out.update(".".join(parts[i:-1]) for i in range(len(parts) - 1))
    return sorted(out)


@pytest.mark.parametrize("tree", sorted(TREES))
def test_indexed_lookup_matches_the_scan(tree):
    graph = Program.read([TREES[tree]]).graph
    asked = queries(graph.modules)
    for dotted in asked:
        assert graph._find_module(dotted) is scan_find_module(graph.modules, dotted), dotted
    found = sum(graph._find_module(d) is not None for d in asked)
    assert 0 < found < len(asked)


def test_package_and_ambiguous_suffix():
    graph = Program.read([TREES["src"]]).graph
    assert graph._find_module("repro.check").name.endswith(".repro.check.__init__")
    inits = [name for name in graph.modules if name.endswith(".__init__")]
    assert len(inits) > 1
    assert graph._find_module("__init__") is None
