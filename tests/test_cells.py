"""Shared-state auditor: per-rule fixtures, waivers, shape model,
declaration drift, the RACE_CELLS round-trip, and the repo-audits-clean
gate."""

import ast
import os
import re

import pytest

from repro.check import Program, astwalk, run_cells
from repro.check.cell_registry import (
    declaration_drift,
    extract_note_sites,
    parse_race_cells,
    shape_of_pattern,
    shapes_intersect,
)
from repro.check.cells import RACE_RULES, audit_files, audit_source, audit_tree
from repro.check.unordered import UnorderedValues

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
INTERNALS = os.path.join(REPO_ROOT, "docs", "INTERNALS.md")


def fixture(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture(scope="module")
def tree_cells(src_program):
    """The in-tree ``RACE_CELLS`` declarations, their parse errors, and
    the note sites, extracted once for the round-trip tests."""
    decls, errors = [], []
    for f in src_program.files:
        found, bad = parse_race_cells(f.tree, f.path)
        decls.extend(found)
        errors.extend(bad)
    return decls, errors, extract_note_sites(src_program.graph)


# ---------------------------------------------------------------------------
# Per-rule fixtures: every rule fires on its bad file, stays silent on
# the good one.
# ---------------------------------------------------------------------------


class TestRuleFixtures:
    @pytest.mark.parametrize("rule", sorted(RACE_RULES))
    def test_bad_fixture_fires_exactly_its_rule(self, rule):
        audit = audit_tree([fixture(f"{rule.lower()}_bad.py")])
        assert audit.violations, rule
        assert {v.rule for v in audit.violations} == {rule}
        assert audit.stale_waivers == []

    @pytest.mark.parametrize("rule", sorted(RACE_RULES))
    def test_good_fixture_clean(self, rule):
        audit = audit_tree([fixture(f"{rule.lower()}_good.py")])
        assert audit.violations == []
        assert audit.stale_waivers == []
        assert audit.freshness == []

    def test_race201_names_the_roots(self):
        audit = audit_tree([fixture("race201_bad.py")])
        (v,) = audit.violations
        assert "Pool._worker" in v.message
        assert "2 concurrent process instances" in v.message

    def test_race204_names_both_families(self):
        audit = audit_tree([fixture("race204_bad.py")])
        messages = " ".join(v.message for v in audit.violations)
        assert "pool.<…>" in messages
        assert "no separating literal" in messages


# ---------------------------------------------------------------------------
# Setup bodies: writes made while constructing an object are not shared
# mutation, but a process body spawned from the constructor is.
# ---------------------------------------------------------------------------

_SPAWNED_METHOD = (
    "class Pool:\n"
    "    def __init__(self, env, n):\n"
    "        self.env = env\n"
    "        self.done = 0\n"
    "        for _ in range(n):\n"
    "            env.process(self.worker())\n\n"
    "    def worker(self):\n"
    "        yield self.env.timeout(1)\n"
    "        self.done += 1\n"
)


_SPAWNED_NESTED_DEF = (
    "class Pool:\n"
    "    def __init__(self, env, n):\n"
    "        self.env = env\n"
    "        self.done = 0\n\n"
    "        def worker():\n"
    "            yield env.timeout(1)\n"
    "            self.done += 1\n\n"
    "        for _ in range(n):\n"
    "            env.process(worker())\n"
)


class TestSetupBodies:
    @pytest.mark.parametrize(
        "src, line, func",
        [(_SPAWNED_METHOD, 10, "Pool.worker"), (_SPAWNED_NESTED_DEF, 8, "Pool.__init__")],
        ids=["method", "def-nested-in-init"],
    )
    def test_spawned_body_write_fires(self, src, line, func):
        """A process body runs after ``__init__`` returns, once per
        spawn, so its writes are shared — also when it is defined inside
        ``__init__``; the setup writes in ``__init__`` itself stay
        exempt."""
        (v,) = audit_source(src, "mod.py")
        assert (v.rule, v.line) == ("RACE201", line)
        assert f"self.done in {func}()" in v.message


# ---------------------------------------------------------------------------
# Waivers share the generalized simlint machinery: suppression works,
# stale waivers fail.
# ---------------------------------------------------------------------------

_UNNOTED = (
    "class Pool:\n"
    "    def __init__(self, env, jobs):\n"
    "        self.env = env\n"
    "        self.jobs = jobs\n"
    "        self.total = 0\n\n"
    "    def start(self):\n"
    "        for job in self.jobs:\n"
    "            self.env.process(self._worker(job))\n\n"
    "    def _worker(self, job):\n"
    "        yield self.env.timeout(1.0)\n"
    "        {line}\n"
)


class TestWaivers:
    def test_waiver_suppresses(self):
        src = _UNNOTED.format(
            line="self.total += job  # race: waive RACE201 -- commutes"
        )
        assert audit_source(src, "mod.py") == []

    def test_waiver_line_above(self):
        src = _UNNOTED.format(
            line="# race: waive RACE201 -- commutes\n        self.total += job"
        )
        assert audit_source(src, "mod.py") == []

    def test_unwaived_fires(self):
        src = _UNNOTED.format(line="self.total += job")
        (v,) = audit_source(src, "mod.py")
        assert v.rule == "RACE201"

    def test_stale_waiver_fails(self):
        src = _UNNOTED.format(
            line="return job  # race: waive RACE201 -- suppresses nothing"
        )
        audit = audit_files(Program([("mod.py", src)]))
        assert audit.violations == []
        (w,) = audit.stale_waivers
        assert w.codes == frozenset({"RACE201"})
        assert not audit.clean

    def test_simlint_waiver_syntax_is_not_a_race_waiver(self):
        src = _UNNOTED.format(
            line="self.total += job  # simlint: waive SIM004 -- wrong ns"
        )
        (v,) = audit_source(src, "mod.py")
        assert v.rule == "RACE201"


# ---------------------------------------------------------------------------
# The shape model behind RACE204.
# ---------------------------------------------------------------------------


class TestShapes:
    def test_pattern_round_trip(self):
        shape = shape_of_pattern("tenancy.quota.t<j>")
        assert shape.render() == "tenancy.quota.t<…>"
        assert not shape.has_adjacent_holes

    def test_adjacent_holes_flagged(self):
        assert shape_of_pattern("job.<t><n>").has_adjacent_holes

    def test_dot_separated_families_intersect(self):
        a = shape_of_pattern("pool.<a>")
        b = shape_of_pattern("pool.<a>.<b>")
        assert shapes_intersect(a, b)

    def test_distinct_literal_prefixes_do_not(self):
        a = shape_of_pattern("pool.slot.<a>")
        b = shape_of_pattern("pool.sub.<a>.<b>")
        assert not shapes_intersect(a, b)

    def test_identical_literals_intersect(self):
        a = shape_of_pattern("fuzz.autopilot.corpus")
        assert shapes_intersect(a, a)


# ---------------------------------------------------------------------------
# Drift: every noted family needs a well-formed RACE_CELLS declaration,
# and drift fails the audit like a violation does.
# ---------------------------------------------------------------------------

_NOTED = (
    "{decl}"
    "class Pool:\n"
    "    def __init__(self, env):\n"
    "        self.env = env\n"
    "        self.total = 0\n\n"
    "    def add(self, n):\n"
    "        self.env.note_access(\"pool.total\", \"w\")\n"
    "        self.total += n\n"
)


class TestDrift:
    def test_undeclared_family_fails_the_audit_and_cli(self, tmp_path, capsys):
        src = _NOTED.format(decl="")
        audit = audit_files(Program([("mod.py", src)]))
        assert audit.violations == [] and audit.stale_waivers == []
        (line,) = audit.freshness
        assert "'pool.total' which no RACE_CELLS entry declares" in line
        assert not audit.clean

        from repro.cli import main

        mod = tmp_path / "mod.py"
        mod.write_text(src)
        out = tmp_path / "cells.txt"
        argv = ["check", "--passes", "cells", "--cells-output", str(out), str(mod)]
        assert main(argv) == 1
        assert "no RACE_CELLS entry declares" in capsys.readouterr().out
        assert "no RACE_CELLS entry declares" in out.read_text()

    @pytest.mark.parametrize(
        "decl, message",
        [
            (
                'RACE_CELLS = (("pool.total", "total", "fan-in counter"),)\n\n',
                "malformed RACE_CELLS entry",
            ),
            (
                "from repro.simcore import cell_name\n\n"
                'RACE_CELLS = ((cell_name("pool", "t", "<j>"), ("total",), '
                '"fan-in counter"),)\n\n',
                "RACE_CELLS is not a literal",
            ),
        ],
        ids=["bare-string-attrs", "not-a-literal"],
    )
    def test_malformed_race_cells_is_drift(self, decl, message):
        audit = audit_files(Program([("mod.py", _NOTED.format(decl=decl))]))
        assert any(
            line.startswith("mod.py:") and message in line
            for line in audit.freshness
        ), audit.freshness
        assert not audit.clean

    def test_nested_def_keeps_its_returns(self):
        """A nested def's ``return`` is not a return of the enclosing
        helper, so it cannot add a phantom family to its note sites."""
        src = (
            'RACE_CELLS = (("a.<n>", ("n",), "one counter"),)\n\n'
            "class A:\n"
            "    def __init__(self, env, n):\n"
            "        self.env = env\n"
            "        self.n = n\n\n"
            "    def cell(self):\n"
            "        def label():\n"
            "            return \"debug.label\"\n"
            "        return f\"a.{self.n}\"\n\n"
            "    def bump(self):\n"
            "        self.env.note_access(self.cell(), \"w\")\n"
            "        self.n += 1\n"
        )
        program = Program([("mod.py", src)])
        (site,) = extract_note_sites(program.graph)
        assert [shape.render() for shape in site.shapes] == ["a.<…>"]
        audit = audit_files(program)
        assert audit.freshness == []
        assert audit.clean


# ---------------------------------------------------------------------------
# Round-trip: the in-tree RACE_CELLS declarations, the extracted note
# sites, and the INTERNALS cell table all agree.
# ---------------------------------------------------------------------------


class TestRegistryRoundTrip:
    def test_registry_matches_extracted_note_sites(self, tree_cells):
        decls, errors, sites = tree_cells
        assert errors == []
        assert declaration_drift(sites, decls) == []
        sites = [s for s in sites if not s.forwarded]
        noted = {shape.tokens for s in sites for shape in s.shapes}
        declared = {d.shape.tokens for d in decls}
        # every declared family is noted somewhere in the tree, and
        # every noted family matches a declaration (no drift either way)
        assert declared <= noted
        for s in sites:
            for shape in s.shapes:
                assert any(
                    shapes_intersect(d.shape, shape) for d in decls
                ), shape.render()
        # one declaration per family, in the one module that notes it
        assert len(declared) == len(decls)
        for decl in decls:
            noting = {s.module for s in sites if decl.shape in s.shapes}
            assert noting == {decl.module}, decl.pattern

    def test_registry_matches_internals_cell_table(self, tree_cells):
        decls, _, _ = tree_cells
        with open(INTERNALS, encoding="utf-8") as fh:
            text = fh.read()
        table = re.search(
            r"\| cell \| component \|.*?\n((?:\|.*\n)+)", text
        )
        assert table is not None
        patterns = {
            m.group(1)
            for m in re.finditer(r"^\| `([^`]+)` \|", table.group(1), re.M)
        }
        assert patterns == {d.pattern for d in decls}


# ---------------------------------------------------------------------------
# The repo gate: the tree audits clean, and the gate actually has teeth.
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_tree_audits_clean(self, src_program):
        audit = audit_files(src_program)
        assert audit.violations == [], "\n".join(
            v.render() for v in audit.violations
        )
        assert audit.stale_waivers == []
        assert audit.freshness == []
        assert audit.clean
        assert audit.n_roots > 20  # the spawn-root inventory is populated
        assert audit.n_writes > 100

    def test_audit_walks_no_module_again(self, src_program, monkeypatch):
        """Writes, roots and note sites come from the call graph: once
        it is built, the audit visits no module tree.  Every checker
        visitor dispatches through the traversal engine's ``visit``, so
        that is where the spy sits."""
        src_program.graph
        visited = []
        real_visit = astwalk.NodeVisitor.visit

        def visit(self, node):
            if isinstance(node, ast.Module):
                visited.append(type(self).__name__)
            return real_visit(self, node)

        monkeypatch.setattr(astwalk.NodeVisitor, "visit", visit)
        assert audit_files(src_program).clean
        assert visited == []
        # the spy sees a visit: a fresh fact over one module tree
        UnorderedValues(src_program.files[0].tree)
        assert visited == ["UnorderedValues"]

    def test_removing_one_note_flips_the_gate(self, src_program):
        """Deleting the staging worker's note_access must fail the
        audit: its queue-head writes lose their only coverage."""
        target = os.path.join(SRC_ROOT, "prefetch", "scheduler.py")
        marker = "# staging-queue head advances"
        mutated = []
        found = False
        for path, source in ((f.path, f.source) for f in src_program.files):
            if path == target:
                assert marker in source
                source = "\n".join(
                    line for line in source.splitlines()
                    if marker not in line
                ) + "\n"
                found = True
            mutated.append((path, source))
        assert found
        audit = audit_files(Program(mutated))
        assert any(
            v.rule == "RACE201" and v.path == target
            for v in audit.violations
        ), "stripping the note should expose the worker's un-noted writes"
        assert not audit.clean


# ---------------------------------------------------------------------------
# CLI entry points.
# ---------------------------------------------------------------------------


class TestCLI:
    def test_run_cells_bad_fixture_nonzero(self, tmp_path, capsys):
        out = tmp_path / "cells.txt"
        rc = run_cells(Program.read([fixture("race201_bad.py")]), output=str(out))
        assert rc == 1
        assert "RACE201" in capsys.readouterr().out
        assert "RACE201" in out.read_text()

    def test_run_cells_good_fixture_clean(self, tmp_path, capsys):
        out = tmp_path / "cells.txt"
        rc = run_cells(Program.read([fixture("race201_good.py")]), output=str(out))
        assert rc == 0
        assert "clean" in capsys.readouterr().out
        assert "clean" in out.read_text()

    def test_run_cells_repo_clean(self, src_program):
        assert run_cells(src_program) == 0

    def test_check_cli_cells_only_flag(self):
        from repro.cli import main

        assert main(["check", "--passes", "cells", fixture("race203_bad.py")]) == 1
        assert main(["check", "--passes", "cells", fixture("race203_good.py")]) == 0
