"""Every public name in ``src/repro`` must have a caller outside ``tests/``.

A public module-level ``def``/``class``, or a public method or property
of a module-level class, that only its own tests reach is surface
without behaviour: it has to be kept working, documented and read, and
nothing the library does depends on it.  This scan requires each such
name to be referenced from ``src/repro``, ``benchmarks/`` or
``examples/``.  What counts as a reference:

* a ``Name``, an ``Attribute`` or an imported name anywhere in those
  trees, except inside the name's own definition (recursion is not a
  caller) and except the imports of an ``__init__.py`` (a re-export is
  not a use);
* each identifier of a string constant that spells a dotted name
  (``"repro.storage.gpfs:GPFS.open"``), because some callers resolve
  names from strings (``benchmarks/e2e/layers.py``); docstrings,
  f-string fragments and ``__all__`` entries do not count;
* a string prefix ending in ``_`` that code adds a name to
  (``"visit_" + kind``): every public name starting with that prefix is
  looked up through it.

A name with no such reference must be in :data:`ALLOWED` with a one-line
reason: a test needs it to observe model state, it is a fixture or
kernel entry point, it backs a claimed result only tests check, or it
waits on ROADMAP 4(a).  Matching is by bare name, so a name is kept
alive by any same-named reference; the guard errs towards passing.
That blind spot is real: ``LookaheadScheduler.attach`` had no caller,
yet ``TenantCacheArbiter.attach(cache)`` kept it off the list until it
was deleted by hand.

A second rule covers stored state the same way.  A stored attribute is
an ``x.attr`` assignment target anywhere in ``src/repro`` or an
annotated class-body field; it must be read from the same trees outside
every statement that stores its name.  A read is an attribute load or a
string spelling the name, as ``getattr(obj, "attr")`` does, with the
same string handling as above; a bare name, an import and a
``__slots__`` entry are not reads.  A record that only tests read goes
in :data:`ALLOWED_STATE` with a reason.  Matching is again by bare name,
so an attribute is kept alive by any same-named attribute load or
string elsewhere.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_TREES = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: ``qualified name -> reason`` for public names only tests reach.
ALLOWED: dict[str, str] = {
    "check.cells.audit_source": "fixture entry point: the audit of one source string",
    "check.linter.lint_source": "fixture entry point: simlint of one source string",
    "check.perf.perf_lint_source": (
        "fixture entry point: the perf analyzer of one source string"
    ),
    "cluster.nvme.NVMeDevice.slow_factor": (
        "observes model state: the degrade a fault applies"
    ),
    "experiments.slo_exp.SLOScenarioResult.faulted": (
        "observes model state: the faulted run's SLO report"
    ),
    "obs.spans.SpanRecorder.named": (
        "observes model state: the recorded span trees, by name"
    ),
    "simcore.engine.Environment.peek": "kernel entry point: the time of the next event",
    "simcore.engine.Environment.unobserve": "kernel entry point: detach an observer",
    "simcore.monitor.MetricRegistry.snapshot": (
        "observes model state: every counter as plain data"
    ),
    "simcore.profile.SimProfiler": (
        "kernel entry point: the per-component event profiler"
    ),
    "simcore.profile.SimProfiler.as_dict": (
        "observes model state: the profile a same-seed test compares"
    ),
    "simcore.resources.Resource.queued": (
        "observes model state: the length of a wait queue"
    ),
    "storage.lustre.Lustre": "claimed result only tests check: HVAC over a second PFS",
    "storage.lustre.Lustre.lock_cache_size": (
        "observes model state: the bounded ldlm lock table"
    ),
    "tenancy.quota.QuotaLedger.refusals": (
        "observes model state: the quota refusals per tenant"
    ),
    "tenancy.quota.QuotaLedger.used_files": (
        "observes model state: the file quota would_exceed enforces"
    ),
    "workloads.ior.run_ior": (
        "claimed result only tests check: the IOR bandwidth anchors"
    ),
}

#: ``qualified attribute -> reason`` for stored state only tests read.
ALLOWED_STATE: dict[str, str] = {
    "baselines.setups.SystemHandle.run_stage": (
        "claimed result only tests check: the event-driven XFS stage-in "
        "against its analytic bound"
    ),
    "fuzz.executor.Observation.reads_planned": (
        "observes model state: the reads an execution plans, every tenant's"
    ),
    "model.analytic.EpochPrediction.bottleneck": (
        "claimed result only tests check: the resource the analytic model "
        "finds saturated"
    ),
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")
_PREFIX = re.compile(r"[A-Za-z]\w*_")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(module: str, tree: ast.Module) -> Iterator[tuple[str, str, int, int]]:
    """``(name, qualified name, first line, last line)`` of each public definition."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or not _public(node.name):
            continue
        yield node.name, f"{module}.{node.name}", node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCS) and _public(item.name):
                    qual = f"{module}.{node.name}.{item.name}"
                    yield item.name, qual, item.lineno, item.end_lineno


def stores(module: str, tree: ast.Module) -> Iterator[tuple[str, str, bool, int, int]]:
    """``(name, owner, own, first, last)`` of each stored attribute.

    ``owner`` is ``module.Class`` for a class-body field or a ``self.``/
    ``cls.`` store inside the class (``own`` is true), else ``module``;
    ``first``/``last`` span the storing statement.
    """

    def walk(node: ast.AST, cls: str | None, stmt: ast.AST) -> Iterator:
        for child in ast.iter_child_nodes(node):
            span = child if isinstance(child, ast.stmt) else stmt
            if isinstance(child, ast.ClassDef):
                owner = f"{module}.{child.name}"
                for item in child.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield item.target.id, owner, True, item.lineno, item.end_lineno
                yield from walk(child, owner, span)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store):
                own = (
                    cls is not None
                    and isinstance(child.value, ast.Name)
                    and child.value.id in ("self", "cls")
                )
                yield child.attr, cls if own else module, own, span.lineno, span.end_lineno
            yield from walk(child, cls, span)

    yield from walk(tree, None, tree)


def _not_names(tree: ast.Module) -> set[int]:
    """``id`` of each docstring, f-string fragment and ``__all__`` or
    ``__slots__`` entry."""
    found: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            found.update(id(part) for part in node.values)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("__all__", "__slots__")
            for t in node.targets
        ):
            found.update(id(c) for c in ast.walk(node.value))
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def references(
    tree: ast.Module, is_init: bool, reads: bool = False
) -> Iterator[tuple[str, int]]:
    """``(name, line)`` of every reference ``tree`` makes (see module doc).

    A string prefix that code adds a name to is reported as ``prefix*``.
    With ``reads``, only attribute loads and strings count.
    """
    skip = _not_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not reads:
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            if not reads or isinstance(node.ctx, ast.Load):
                yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not (is_init or reads):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)
            and _PREFIX.fullmatch(node.left.value)
        ):
            yield node.left.value + "*", node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
            and _DOTTED.fullmatch(node.value)
        ):
            for token in re.split(r"[.:]", node.value):
                yield token, node.lineno


def _module(path: str) -> str:
    """Dotted module name of a relative ``.py`` path."""
    parts = path.removesuffix(".py").split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _uses(
    callers: dict[str, str], reads: bool = False
) -> tuple[dict[str, list[tuple[str, int]]], list[str]]:
    """``name -> [(path, line)]`` of every reference, and the dispatch prefixes."""
    uses: dict[str, list[tuple[str, int]]] = {}
    prefixes: list[str] = []
    for path, text in callers.items():
        is_init = path.endswith("__init__.py")
        for name, line in references(ast.parse(text), is_init, reads):
            if name.endswith("*"):
                prefixes.append(name[:-1])
            else:
                uses.setdefault(name, []).append((path, line))
    return uses, prefixes


def unreferenced(defining: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Qualified public names in ``defining`` that ``callers`` never reference.

    Both map a relative ``.py`` path to its source.  A reference from a
    path's own file counts only outside the name's definition.
    """
    uses, prefixes = _uses(callers)
    dead = []
    for path, text in defining.items():
        for name, qual, first, last in definitions(_module(path), ast.parse(text)):
            if any(name.startswith(p) for p in prefixes):
                continue
            if not any(
                p != path or not first <= line <= last for p, line in uses.get(name, ())
            ):
                dead.append(qual)
    return sorted(dead)


def unread(defining: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Qualified attributes stored in ``defining`` that ``callers`` never read.

    A reference counts only outside every store site of its name.  A
    name is reported under its class owners, or under its modules when
    only foreign objects store it.
    """
    uses, prefixes = _uses(callers, reads=True)
    sites: dict[str, list[tuple[str, str, bool, int, int]]] = {}
    for path, text in defining.items():
        for name, owner, own, first, last in stores(_module(path), ast.parse(text)):
            sites.setdefault(name, []).append((path, owner, own, first, last))
    dead = set()
    for name, found in sites.items():
        if any(name.startswith(p) for p in prefixes) or any(
            all(p != site or not first <= line <= last for site, _, _, first, last in found)
            for p, line in uses.get(name, ())
        ):
            continue
        any_own = any(own for _, _, own, _, _ in found)
        dead.update(f"{owner}.{name}" for _, owner, own, _, _ in found if own or not any_own)
    return sorted(dead)


def _sources(root: Path, tree: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
        for p in sorted(tree.rglob("*.py"))
    }


def _trees() -> tuple[dict[str, str], dict[str, str]]:
    src = _sources(SRC, SRC)
    callers = dict(src)
    for tree in CALLER_TREES[1:]:
        callers.update(_sources(ROOT, tree))
    return src, callers


def _surface() -> list[str]:
    return unreferenced(*_trees())


def _state() -> list[str]:
    return unread(*_trees())


def test_every_public_name_has_a_caller():
    missing = sorted(set(_surface()) - set(ALLOWED))
    assert not missing, f"public names only tests reach: {missing}"


def test_every_allowance_is_still_needed():
    stale = sorted(set(ALLOWED) - set(_surface()))
    assert not stale, f"ALLOWED entries with a caller now, or gone: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_stored_attribute_has_a_reader():
    missing = sorted(set(_state()) - set(ALLOWED_STATE))
    assert not missing, f"stored attributes only tests read: {missing}"


def test_every_state_allowance_is_still_needed():
    stale = sorted(set(ALLOWED_STATE) - set(_state()))
    assert not stale, f"ALLOWED_STATE entries with a reader now, or gone: {stale}"
    assert all(reason.strip() for reason in ALLOWED_STATE.values())


# -- negative control ------------------------------------------------------

_PKG = {
    "pkg/__init__.py": (
        "from .mod import Box, unused, used\n"
        "__all__ = ['Box', 'unused', 'used', 'dead']\n"
    ),
    "pkg/mod.py": (
        "def used():\n"
        "    pass\n"
        "\n"
        "\n"
        "def unused():\n"
        "    return unused()\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def open(self):\n"
        "        pass\n"
        "\n"
        "    def dead(self):\n"
        "        '''Not Box.dead: a docstring is not a caller.'''\n"
        "\n"
        "    def visit_Name(self):\n"
        "        pass\n"
    ),
}


def test_unreferenced_names_are_flagged():
    """An ``__init__`` re-export, ``__all__``, a docstring and recursion
    are not callers; an import, an attribute and a dispatch prefix are."""
    app = (
        "from pkg import Box, used\n"
        "used()\n"
        "Box().open()\n"
        "getattr(Box(), 'visit_' + 'Name')\n"
    )
    callers = {**_PKG, "app.py": app}
    assert unreferenced(_PKG, callers) == ["pkg.mod.Box.dead", "pkg.mod.unused"]


def test_a_dotted_string_is_a_caller():
    """A string spelling a dotted name counts; an f-string fragment does not."""
    app = "NAMES = ('pkg.mod:Box.dead', 'unused')\nprint(f'{NAMES}.used')\n"
    callers = {**_PKG, "app.py": app}
    assert unreferenced(_PKG, callers) == [
        "pkg.mod.Box.open",
        "pkg.mod.Box.visit_Name",
        "pkg.mod.used",
    ]


_STATE = {
    "pkg/box.py": (
        "class Box:\n"
        "    __slots__ = ('count', 'dead', 'named')\n"
        "\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "        self.dead = 0\n"
        "        self.named = 0\n"
        "\n"
        "    def bump(self):\n"
        "        self.dead = self.dead + 1\n"
        "        self.count += 1\n"
        "        return self.count\n"
        "\n"
        "\n"
        "class Row:\n"
        "    width: int\n"
        "    unused: int = 0\n"
        "\n"
        "\n"
        "def tag(box):\n"
        "    box.label = 'x'\n"
    ),
}


def test_write_only_attributes_are_flagged():
    """A store, a load inside its own store and a ``__slots__`` entry
    are not reads; an attribute load and a ``getattr`` string are.  A
    foreign store is reported under its module."""
    assert unread(_STATE, _STATE) == [
        "pkg.box.Box.dead",
        "pkg.box.Box.named",
        "pkg.box.Row.unused",
        "pkg.box.Row.width",
        "pkg.box.label",
    ]
    app = "from pkg.box import Box, Row\nprint(getattr(Box(), 'named'), Row().width)\n"
    assert unread(_STATE, {**_STATE, "app.py": app}) == [
        "pkg.box.Box.dead",
        "pkg.box.Row.unused",
        "pkg.box.label",
    ]
