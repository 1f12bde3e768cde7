"""Every defaulted parameter in ``src/repro`` must be set by some caller.

A parameter with a default that no caller ever passes is a setting with
one value in use: each caller gets the default, yet the code keeps a
branch, a validation and a docstring line for values nobody asks for.
The rule (the Options rule of a simplicity review) is that such a
parameter becomes a constant.  This scan checks every parameter with a
default on a public module-level function, a public method of a public
module-level class, and the ``__init__`` of a public class, and
requires a call in ``src/repro``, ``benchmarks/`` or ``examples/`` to
pass it.  What counts as passing:

* a keyword argument whose value is not a literal equal to the default;
* a positional argument (``self``/``cls`` not counted) that is not a
  literal equal to the default; a ``*args`` splat sets every positional
  parameter from its place on, and a ``**kwargs`` splat sets them all;
* ``functools.partial(f, ...)`` is a call to ``f``;
* a function named as a value (not called: handed to another function,
  stored, returned) may be called with anything, so all of its
  parameters count as set.

Calls are matched by bare callee name: ``f(...)``, ``obj.f(...)``.  A
class's ``__init__`` is called by the class name, by ``cls(...)`` and by
``super().__init__(...)``.  Matching by bare name errs towards passing,
so a parameter is kept alive by any same-named callee: the API guard
(``test_api_surface.py``) has the same blind spot, where one
``attach`` method kept a second, uncalled ``attach`` off its list.

A parameter with no such call must be in :data:`ALLOWED` with a
one-line reason, and an entry that no longer matches fails.  Dataclass
fields are not parameters here; ``test_settings_surface.py`` covers the
spec fields.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_TREES = (SRC, ROOT / "benchmarks", ROOT / "examples")

_FAULT = "fault constructor: fills a FaultEvent field, which scenario digests hash"
_SEED = "seed: the paper's claims are averaged over seeds"
_OBSERVER = "observer input: a test attaches a trace or span recorder"
_CLUSTER = "deployment setting: the cluster under study"

#: ``qualified name:parameter -> reason`` for defaults no caller sets.
ALLOWED: dict[str, str] = {
    "baselines.setups.XFSSetup.__init__:instant_stage": (
        "event-driven stage-in: the reference the analytic stage time is checked against"
    ),
    "check.cells.audit_source:path": "fixture entry point: the audit of one source string",
    "check.linter.lint_source:path": "fixture entry point: simlint of one source string",
    "check.linter.lint_source:rules": "fixture entry point: simlint of one source string",
    "check.linter.lint_source:scope": "fixture entry point: simlint of one source string",
    "check.perf.perf_lint_source:path": (
        "fixture entry point: the perf analyzer of one source string"
    ),
    "check.races.membership_smoke:n_files": (
        "the collector-pause test runs the smoke scenario at two sizes"
    ),
    "check.races.membership_smoke:trace": _OBSERVER,
    "cli.main:argv": "entry point: `python -m repro` reads sys.argv, tests pass argv",
    "experiments.accuracy_exp.accuracy_comparison:eval_every": (
        "sizes Fig 14's learners; tier-1 shrinks them to stay fast"
    ),
    "experiments.accuracy_exp.accuracy_comparison:n_shards": (
        "sizes Fig 14's learners; tier-1 shrinks them to stay fast"
    ),
    "experiments.accuracy_exp.accuracy_comparison:seed": _SEED,
    "experiments.accuracy_exp.accuracy_comparison:task": (
        "sizes Fig 14's learners; tier-1 shrinks them to stay fast"
    ),
    "experiments.cache_split.cache_split:seed": _SEED,
    "experiments.harness.run_training:concurrent_jobs": (
        "the paper's two-jobs-per-node methodology (§IV-B); tests check its contention"
    ),
    "experiments.load_balance.load_balance:seed": _SEED,
    "experiments.report.generate_report:spec": _CLUSTER,
    "experiments.resilience.fault_matrix:spans": _OBSERVER,
    "experiments.resilience.fault_matrix:spec": _CLUSTER,
    "experiments.resilience.resilience_sweep:spans": _OBSERVER,
    "experiments.resilience.resilience_sweep:spec": _CLUSTER,
    "experiments.resilience.resilience_sweep:trace": _OBSERVER,
    "faults.schedule.degrade:duration": _FAULT,
    "faults.schedule.flaky_link:drop_prob": _FAULT,
    "faults.schedule.flaky_link:extra_delay": _FAULT,
    "faults.schedule.flap:cycles": _FAULT,
    "faults.schedule.flap:period": _FAULT,
    "faults.schedule.partition:duration": _FAULT,
    "fuzz.autopilot.Autopilot.observe:env": (
        "note site of the fuzz.autopilot.corpus race cell (RACE_CELLS)"
    ),
    "fuzz.shrink.shrink:check": "test seam: a fake check runs the shrinker without the executor",
    "model.analytic.AnalyticModel.__init__:batch_size": (
        "mirrors TrainingConfig.batch_size; the compute-cost identity test varies both"
    ),
    "simcore.resources.PriorityResource.__init__:capacity": (
        "waits on ROADMAP 7(b), which deletes the class"
    ),
    "simcore.trace.EventTrace.__init__:keep_all": _OBSERVER,
    "tenancy.fleet.TenantFleet.make_admission:degrade_ok": (
        "the pinned tenancy report prints a reject column"
    ),
    "workloads.ior.run_ior:system_label": (
        "claimed result only tests check: the IOR bandwidth anchors"
    ),
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_MISSING = object()


@dataclass(frozen=True)
class Knob:
    """One defaulted parameter of one public callable."""

    qual: str  #: ``module.Class.method:param``
    callee: str  #: the bare name a call goes by (the class, for ``__init__``)
    index: int | None  #: positional index after ``self``; None: keyword-only
    param: str
    default: object  #: the literal default, or _MISSING
    #: "function", "method" or "init": a method is named as a value only
    #: as an attribute, and an ``__init__`` not at all
    kind: str


def _public(name: str) -> bool:
    return not name.startswith("_")


def _literal(node: ast.AST) -> object:
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return _MISSING


def _same(value: object, default: object) -> bool:
    """Whether ``value`` is a literal equal (and of one type) to ``default``."""
    return (
        value is not _MISSING
        and default is not _MISSING
        and type(value) is type(default)
        and value == default
    )


def _knobs(qual: str, fn: ast.FunctionDef, callee: str, bound: bool, kind: str):
    args = fn.args
    positional = [*args.posonlyargs, *args.args][1 if bound else 0 :]
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    for i, (arg, default) in enumerate(zip(positional, defaults)):
        if default is not None:
            yield Knob(
                f"{qual}:{arg.arg}", callee, i, arg.arg, _literal(default), kind
            )
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield Knob(
                f"{qual}:{arg.arg}", callee, None, arg.arg, _literal(default), kind
            )


def _bound(fn: ast.FunctionDef) -> bool:
    """Whether ``fn``'s first parameter is the instance or the class."""
    return not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    )


def knobs(module: str, tree: ast.Module) -> Iterator[Knob]:
    """Every defaulted parameter of ``tree``'s public callables."""
    for node in tree.body:
        if isinstance(node, _FUNCS) and _public(node.name):
            qual = f"{module}.{node.name}"
            yield from _knobs(qual, node, node.name, False, "function")
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if not isinstance(item, _FUNCS):
                    continue
                qual = f"{module}.{node.name}.{item.name}"
                if item.name == "__init__":
                    yield from _knobs(qual, item, node.name, True, "init")
                elif _public(item.name):
                    bound = _bound(item)
                    yield from _knobs(qual, item, item.name, bound, "method")


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass(frozen=True)
class Call:
    """What one call passes: positional literals, where a ``*`` splat
    starts, keyword literals, and whether it has a ``**`` splat."""

    positional: tuple[object, ...]
    splat: int | None
    keywords: dict[str, object]
    double: bool


@dataclass
class Uses:
    """What the caller trees pass, by bare callee name."""

    calls: dict[str, list[Call]] = field(default_factory=dict)
    #: bare names used as a value, not called: as a ``Name``, and as
    #: the last part of an ``Attribute``
    names: set[str] = field(default_factory=set)
    attrs: set[str] = field(default_factory=set)


class _Collector(ast.NodeVisitor):
    def __init__(self, found: Uses):
        self.found = found
        #: ``(name, bare base names)`` of each enclosing class
        self.classes: list[tuple[str, list[str]]] = []
        #: ``id`` of each Name/Attribute that is not a value use: a
        #: callee, an annotation, an attribute's base, a wrapped-in-place
        #: reference
        self.not_values: set[int] = set()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append((node.name, [n for b in node.bases if (n := _name(b))]))
        self.generic_visit(node)
        self.classes.pop()

    def _callees(self, func: ast.AST, args: list[ast.expr]):
        """``(bare callee name, positional args)`` a call goes to."""
        if isinstance(func, ast.Name) and func.id == "cls" and self.classes:
            return [(self.classes[-1][0], args)]
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            owner = func.value
            if isinstance(owner, ast.Call) and _name(owner.func) == "super":
                return [(base, args) for base in self.classes[-1][1]]
            if (name := _name(owner)) is not None:
                return [(name, args[1:])]  # ``Base.__init__(self, ...)``
        if (name := _name(func)) is not None:
            return [(name, args)]
        return []

    def visit_Call(self, node: ast.Call) -> None:
        func, args = node.func, list(node.args)
        if _name(func) == "partial" and args:
            self.not_values.add(id(func))
            func, args = args[0], args[1:]
        self.not_values.add(id(func))
        keywords = {kw.arg: _literal(kw.value) for kw in node.keywords if kw.arg}
        double = any(kw.arg is None for kw in node.keywords)
        for name, passed in self._callees(func, args):
            starred = [i for i, a in enumerate(passed) if isinstance(a, ast.Starred)]
            call = Call(
                tuple(_literal(a) for a in passed),
                starred[0] if starred else None,
                keywords,
                double,
            )
            self.found.calls.setdefault(name, []).append(call)
        self.generic_visit(node)

    def _annotation(self, node: ast.AST | None) -> None:
        if node is not None:
            self.not_values.update(id(n) for n in ast.walk(node))

    def visit_arg(self, node: ast.arg) -> None:
        self._annotation(node.annotation)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._annotation(node.annotation)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._annotation(node.returns)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        # ``m.f = wrap(m.f)`` wraps ``f`` in place: calls still go by its
        # name, so the wrapped reference is not a value use.
        value = node.value
        if isinstance(value, ast.Call):
            stored = {ast.unparse(t) for t in node.targets}
            self.not_values.update(id(a) for a in value.args if ast.unparse(a) in stored)
        self.generic_visit(node)

    def _value(self, node: ast.expr, name: str, values: set[str]) -> None:
        if isinstance(node.ctx, ast.Load) and id(node) not in self.not_values:
            values.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        self._value(node, node.id, self.found.names)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._value(node, node.attr, self.found.attrs)
        if isinstance(node.value, (ast.Name, ast.Attribute)):
            self.not_values.add(id(node.value))  # ``a.b`` uses ``b``, not ``a``
        self.generic_visit(node)


def uses(sources: dict[str, str]) -> Uses:
    """Collect every call and value use in ``sources`` (path -> text)."""
    found = Uses()
    for text in sources.values():
        _Collector(found).visit(ast.parse(text))
    return found


def _passes(knob: Knob, call: Call) -> bool:
    if call.double:
        return True
    if knob.param in call.keywords:
        return not _same(call.keywords[knob.param], knob.default)
    if knob.index is None:
        return False
    if call.splat is not None and knob.index >= call.splat:
        return True
    return knob.index < len(call.positional) and not _same(
        call.positional[knob.index], knob.default
    )


def _set(knob: Knob, found: Uses) -> bool:
    if knob.kind != "init" and knob.callee in found.attrs:
        return True
    if knob.kind == "function" and knob.callee in found.names:
        return True
    return any(_passes(knob, call) for call in found.calls.get(knob.callee, ()))


def _module(path: str) -> str:
    """Dotted module name of a relative ``.py`` path."""
    parts = path.removesuffix(".py").split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def unset(defining: dict[str, str], callers: dict[str, str]) -> list[str]:
    """``module.Callable:param`` of each default in ``defining`` no caller sets."""
    found = uses(callers)
    return sorted(
        knob.qual
        for path, text in defining.items()
        for knob in knobs(_module(path), ast.parse(text))
        if not _set(knob, found)
    )


def _sources(root: Path, tree: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
        for p in sorted(tree.rglob("*.py"))
    }


def _surface() -> list[str]:
    src = _sources(SRC, SRC)
    callers = dict(src)
    for tree in CALLER_TREES[1:]:
        callers.update(_sources(ROOT, tree))
    return unset(src, callers)


def test_every_default_is_set_by_a_caller():
    missing = sorted(set(_surface()) - set(ALLOWED))
    assert not missing, f"defaults no caller sets: {missing}"


def test_every_allowance_is_still_needed():
    stale = sorted(set(ALLOWED) - set(_surface()))
    assert not stale, f"ALLOWED entries a caller sets now, or gone: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())


# -- negative controls -----------------------------------------------------

_MOD = {
    "pkg/mod.py": (
        "def unpassed(a, b=1):\n"
        "    pass\n"
        "\n"
        "\n"
        "def only_default(a, b=1, c='x'):\n"
        "    pass\n"
        "\n"
        "\n"
        "def by_keyword(a, b=1):\n"
        "    pass\n"
        "\n"
        "\n"
        "def by_position(a, b=1):\n"
        "    pass\n"
        "\n"
        "\n"
        "def by_splat(a, b=1, *, c=2):\n"
        "    pass\n"
        "\n"
        "\n"
        "def by_partial(a, b=1):\n"
        "    pass\n"
        "\n"
        "\n"
        "def as_value(a, b=1):\n"
        "    pass\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __init__(self, size=1, tag=None):\n"
        "        pass\n"
        "\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(size=2)\n"
        "\n"
        "    def fill(self, n=0, *, strict=False):\n"
        "        pass\n"
        "\n"
        "\n"
        "class Crate(Box):\n"
        "    def __init__(self, lid=True):\n"
        "        super().__init__(tag='crate')\n"
    ),
}

_APP = (
    "from functools import partial\n"
    "from pkg.mod import Box, as_value, by_keyword, by_partial, by_position\n"
    "from pkg.mod import by_splat, only_default, unpassed\n"
    "unpassed(0)\n"
    "only_default(0, 1, c='x')\n"
    "by_keyword(0, b=2)\n"
    "by_position(0, 3)\n"
    "by_splat(*args)\n"
    "by_splat(0, **kwargs)\n"
    "run = partial(by_partial, 0, 5)\n"
    "register(as_value)\n"
    "Box().fill(strict=True)\n"
)


def test_unset_defaults_are_flagged():
    """A default nobody passes, or passes only as its literal value, is
    flagged; so is a subclass's own ``__init__`` parameter when only its
    base's ``__init__`` is called."""
    callers = {**_MOD, "app.py": _APP}
    assert unset(_MOD, callers) == [
        "pkg.mod.Box.fill:n",
        "pkg.mod.Crate.__init__:lid",
        "pkg.mod.only_default:b",
        "pkg.mod.only_default:c",
        "pkg.mod.unpassed:b",
    ]


def test_every_way_of_passing_counts():
    """Keyword, position, ``*``/``**`` splats, ``partial``, a function
    named as a value, ``cls(...)`` and ``super().__init__(...)`` all set
    a parameter; a splat does not reach a keyword-only one."""
    callers = {**_MOD, "app.py": _APP}
    flagged = set(unset(_MOD, callers))
    for knob in (
        "pkg.mod.by_keyword:b",
        "pkg.mod.by_position:b",
        "pkg.mod.by_splat:b",
        "pkg.mod.by_splat:c",
        "pkg.mod.by_partial:b",
        "pkg.mod.as_value:b",
        "pkg.mod.Box.__init__:size",
        "pkg.mod.Box.__init__:tag",
        "pkg.mod.Box.fill:strict",
    ):
        assert knob not in flagged, knob
    # A positional splat alone leaves the keyword-only parameter unset.
    only_star = {**_MOD, "app.py": "from pkg.mod import by_splat\nby_splat(*a)\n"}
    assert "pkg.mod.by_splat:c" in unset(_MOD, only_star)
    assert "pkg.mod.by_splat:b" not in unset(_MOD, only_star)
