"""``repro check --perf`` — the sim-hot-path performance analyzer.

The simulation kernel dispatches hundreds of thousands of events per
wall-clock second, so a per-event allocation or O(n) container scan that
would be invisible anywhere else dominates the profile here.  This pass
finds those patterns *statically*, on exactly the code that runs per
event:

1. **The sim-hot set.**  Using the same module-level call graph the
   taint pass builds (:mod:`.callgraph`), every function in the kernel's
   dispatch modules (``simcore/engine.py``), the RPC delivery path
   (``rpc/endpoint.py``), and the per-read client/server/cache path
   (``core/{client,server,cache}.py``) is a root; the hot set is the
   closure over resolved call edges.  Observer modules the kernel
   invokes through duck-typed attributes (trace, sanitizer, profiler,
   metrics, spans) are added explicitly — the graph cannot resolve
   those edges.  A bare-name instantiation of a class defined in the
   file set marks that class *churned*: its methods join the hot set
   even when the individual call sites cannot be resolved.
2. **PERF rules** (below) run only inside hot functions, so cold setup
   and analysis code is never flagged.

========  ============================================================
PERF101   a class churned on the hot path has no ``__slots__`` — every
          instance carries a dict the kernel allocates per event
PERF102   closure/lambda defined inside a hot function — one code/cell
          allocation per call; hoist to module level or a bound method
PERF103   eager string/label construction (f-string / ``.format``)
          flowing into a metrics/span/process-name sink, or returned,
          on the hot path — build labels once, or guard behind the
          engine's observer flag
PERF104   the same ≥2-link attribute chain read ≥2× inside one loop —
          hoist it to a local before the loop
PERF105   O(n)-per-event container use: ``list.pop(0)``, membership
          tests against known lists, ``sorted()``/``min()``/``max()``
          over a container inside a loop, dict/set rebuilds in a loop
========  ============================================================

False positives are silenced inline, loudly and with a reason::

    if cand not in out:  # perf: waive PERF105 -- out is replication-factor bounded

Waivers that stop suppressing anything are reported as *stale* (same
machinery as simlint's), so they cannot rot.

When the linted file set contains none of the root modules (fixture
tests, ad-hoc snippets), every function is treated as hot — the rules
then behave as a plain per-function lint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .callgraph import CallGraph, module_matches, module_name_for
from .program import Program, SourceFile, StaleWaiver
from .rules import Violation

__all__ = [
    "PERF_RULES",
    "PerfLint",
    "perf_lint_files",
    "perf_lint_source",
    "perf_lint_tree",
]

#: rule code -> one-line rationale (mirrored in docs/INTERNALS.md)
PERF_RULES: dict[str, str] = {
    "PERF101": "class churned on the sim hot path has no __slots__; every "
    "instance carries an attribute dict allocated per event — add "
    "__slots__ (or @dataclass(slots=True))",
    "PERF102": "closure/lambda defined inside a hot function allocates a "
    "code object and cells per call — hoist to module level or a bound "
    "method",
    "PERF103": "eager string/label construction on the sim hot path; the "
    "label is rebuilt per event even when no observer consumes it — "
    "memoize it, or guard behind the observer flag",
    "PERF104": "the same attribute chain is dereferenced repeatedly inside "
    "one loop — hoist it to a local before the loop",
    "PERF105": "O(n)-per-event container operation — use a deque/set/heap, "
    "or move the scan off the per-event path",
}

#: dotted-module suffixes whose every function is a hot-set root: the
#: kernel's dispatch loop, RPC delivery, and the per-read data path
HOT_ROOT_MODULES = (
    "simcore.engine",
    "rpc.endpoint",
    "core.client",
    "core.server",
    "core.cache",
)

#: observer/collector modules the kernel invokes through its observer
#: hook tuples (``begin_event``, ``note_schedule``, ``end_event``,
#: ``note``) or duck-typed metric and span appends — call edges the
#: graph cannot resolve, seeded hot
DEFAULT_EXTRA_HOT = (
    "simcore.monitor",
    "simcore.trace",
    "simcore.profile",
    "simcore.stores",
    "simcore.resources",
    "obs.spans",
)

#: call targets whose string arguments are metric/span/process labels
_LABEL_SINKS = {
    "counter", "tally", "histogram", "get_series", "scope",
    "begin", "annotate", "end", "process", "note_access", "_incr", "incr",
}

#: functions the rules never fire in: construction and debug repr run
#: once per object (or per failure), not once per event — labels and
#: allocations there are exactly the hoist targets the rules point to
_SETUP_EXEMPT = {"__init__", "__post_init__", "__repr__"}

#: additional PERF103 exemptions: human-facing formatting helpers
_PERF103_EXEMPT = _SETUP_EXEMPT | {"describe", "render"}

#: annotation heads that mark a binding as a list
_LIST_ANNOTATIONS = ("list", "List", "MutableSequence", "Sequence")


# ---------------------------------------------------------------------------
# class inventory (PERF101 + churned-class hot expansion)
# ---------------------------------------------------------------------------

@dataclass
class _ClassInfo:
    name: str
    module: str
    path: str
    line: int
    slotted: bool
    exceptionish: bool
    base_names: tuple[str, ...]
    #: resolved after the full scan: all bases are in-set or object
    known_bases: bool = True


def _terminal_name(node: ast.expr) -> str | None:
    """``C`` for ``C``; ``C`` for ``pkg.mod.C``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_slotted(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        if isinstance(dec, ast.Call) and _terminal_name(dec.func) == "dataclass":
            for kw in dec.keywords:
                if (
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
    for stmt in node.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _is_exceptionish(name: str, base_names: tuple[str, ...]) -> bool:
    suffixes = ("Error", "Exception", "Warning")
    if name.endswith(suffixes):
        return True
    for base in base_names:
        if base in ("Exception", "BaseException") or base.endswith(suffixes):
            return True
    return False


def _scan_classes(files: list[SourceFile]) -> dict[str, list[_ClassInfo]]:
    """Every class defined in the file set, keyed by bare name."""
    out: dict[str, list[_ClassInfo]] = {}
    for f in files:
        module = module_name_for(f.path)
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = tuple(
                b for b in (_terminal_name(base) for base in node.bases)
                if b is not None
            )
            info = _ClassInfo(
                name=node.name,
                module=module,
                path=f.path,
                line=node.lineno,
                slotted=_is_slotted(node),
                exceptionish=_is_exceptionish(node.name, bases),
                base_names=bases,
            )
            out.setdefault(node.name, []).append(info)
    # Resolve base knowledge: a class whose bases are all defined in the
    # set (or object/metaclass-free) is a slots candidate; inheriting an
    # unknown external base (NamedTuple, Enum, ...) means __slots__
    # would not remove the instance dict anyway.
    for infos in out.values():
        for info in infos:
            info.known_bases = all(
                b == "object" or b in out for b in info.base_names
            )
    return out


# ---------------------------------------------------------------------------
# hot-set computation
# ---------------------------------------------------------------------------

def _hot_set(
    graph: CallGraph, classes: dict[str, list[_ClassInfo]]
) -> tuple[set[str], set[str], bool]:
    """Hot function keys, churned class names, and the all-hot flag."""
    roots = {
        key
        for key, info in graph.functions.items()
        if module_matches(info.module, HOT_ROOT_MODULES)
    }
    extra = {
        key
        for key, info in graph.functions.items()
        if module_matches(info.module, DEFAULT_EXTRA_HOT)
    }
    if not roots:
        # No kernel module in the file set: fixture / ad-hoc lint.
        # Everything is hot so the rules behave as a plain lint.
        return set(graph.functions), set(classes), True

    hot = roots | extra
    churned: set[str] = set()
    #: class-name -> its method keys, for churned expansion
    methods_of: dict[str, list[str]] = {}
    for key, info in graph.functions.items():
        qual = info.qualname
        if "." in qual:
            methods_of.setdefault(qual.split(".", 1)[0], []).append(key)

    changed = True
    while changed:
        changed = False
        for key in list(hot):
            info = graph.functions[key]
            for call in info.calls:
                if call.target is not None:
                    if call.target not in hot:
                        hot.add(call.target)
                        changed = True
                    continue
                # Constructor retry: an unresolved bare CapWords call to
                # a class defined in the set churns that class.
                cname = call.display.split(".")[-1]
                if cname[:1].isupper() and cname in classes and cname not in churned:
                    churned.add(cname)
                    for mkey in methods_of.get(cname, ()):
                        if mkey not in hot:
                            hot.add(mkey)
                            changed = True
        # A hot constructor churns its whole class: instances built per
        # event get all their methods driven per event too.
        for key in list(hot):
            info = graph.functions[key]
            if info.qualname.endswith(".__init__"):
                cname = info.qualname.rsplit(".", 1)[0].rsplit(".", 1)[-1]
                if cname not in churned:
                    churned.add(cname)
                for mkey in methods_of.get(cname, ()):
                    if mkey not in hot:
                        hot.add(mkey)
                        changed = True
    return hot, churned, False


# ---------------------------------------------------------------------------
# the per-file rule visitor
# ---------------------------------------------------------------------------

def _is_label_expr(node: ast.expr) -> bool:
    """An eagerly-built string: f-string with holes, or ``.format()``."""
    if isinstance(node, ast.JoinedStr):
        return any(isinstance(v, ast.FormattedValue) for v in node.values)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
    ):
        return True
    return False


def _attr_chain(node: ast.expr) -> tuple[str, int] | None:
    """``("self.env.now", 2)`` for a pure Name.attr.attr chain."""
    links = 0
    cur = node
    parts: list[str] = []
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        links += 1
        cur = cur.value
    if not isinstance(cur, ast.Name) or links == 0:
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts)), links


class _PerfVisitor(ast.NodeVisitor):
    """PERF101–PERF105 over one module, restricted to hot functions."""

    def __init__(
        self,
        path: str,
        hot_quals: set[str],
        all_hot: bool,
        slotless: dict[str, _ClassInfo],
        list_attrs: set[str],
    ):
        self.path = path
        self.hot_quals = hot_quals
        self.all_hot = all_hot
        self.slotless = slotless  # churned, slot-eligible classes by name
        self.list_attrs = list_attrs
        self.violations: list[Violation] = []
        self._class_stack: list[str] = []
        #: (qualname, is_hot) of the enclosing *top-level* function
        self._func_stack: list[tuple[str, bool]] = []
        self._loop_depth = 0
        self._local_lists: set[str] = set()
        #: ids of lambdas in default-argument position (built once at
        #: def time, not per call — never PERF102)
        self._default_lambdas: set[int] = set()

    # -- plumbing ---------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, detail: str) -> None:
        self.violations.append(
            Violation(
                rule,
                self.path,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                f"{detail} [{PERF_RULES[rule].split(' — ')[0].split(';')[0]}]",
            )
        )

    @property
    def _hot(self) -> bool:
        return bool(self._func_stack) and self._func_stack[-1][1]

    @property
    def _func_name(self) -> str:
        return self._func_stack[-1][0].rsplit(".", 1)[-1] if self._func_stack else ""

    # -- structure --------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _note_default_lambdas(self, node) -> None:
        for default in (*node.args.defaults, *node.args.kw_defaults):
            if default is None:
                continue
            for sub in ast.walk(default):
                if isinstance(sub, ast.Lambda):
                    self._default_lambdas.add(id(sub))

    def _visit_func(self, node) -> None:
        self._note_default_lambdas(node)
        if self._func_stack:
            # Nested def inside a hot function: a per-call closure.
            if self._hot:
                self._emit(
                    "PERF102", node,
                    f"nested def {node.name!r} is created on every call",
                )
            # Its body still runs on the hot path — keep visiting with
            # the enclosing function's hotness.
            self.generic_visit(node)
            return
        qual = ".".join([*self._class_stack, node.name])
        hot = (
            self.all_hot or qual in self.hot_quals
        ) and node.name not in _SETUP_EXEMPT
        self._func_stack.append((qual, hot))
        saved_lists = self._local_lists
        self._local_lists = set()
        self.generic_visit(node)
        self._local_lists = saved_lists
        self._func_stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_func

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._note_default_lambdas(node)
        if self._hot and id(node) not in self._default_lambdas:
            self._emit("PERF102", node, "lambda is created on every call")
        self.generic_visit(node)

    # -- local list tracking (PERF105 membership) --------------------------
    def _is_list_expr(self, node: ast.expr | None) -> bool:
        if isinstance(node, (ast.List, ast.ListComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("list", "sorted")
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if self._is_list_expr(node.value):
                    self._local_lists.add(target.id)
                else:
                    self._local_lists.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            ann = ast.unparse(node.annotation).split("[")[0]
            if self._is_list_expr(node.value) or ann in _LIST_ANNOTATIONS:
                self._local_lists.add(node.target.id)
        self.generic_visit(node)

    # -- loops: PERF104 + the in-loop PERF105 shapes ------------------------
    def visit_For(self, node: ast.For) -> None:
        self._enter_loop(node, iter_node=node.iter, body=node.body + node.orelse)

    def visit_While(self, node: ast.While) -> None:
        self._enter_loop(node, iter_node=None, body=node.body + node.orelse)

    def _enter_loop(self, node, iter_node, body) -> None:
        if self._hot:
            self._scan_loop_chains(node, iter_node, body)
        if iter_node is not None:
            self.visit(iter_node)
        if isinstance(node, ast.While):
            self.visit(node.test)
        self._loop_depth += 1
        for stmt in body:
            self.visit(stmt)
        self._loop_depth -= 1

    def _scan_loop_chains(self, loop, iter_node, body) -> None:
        """PERF104: count repeated attribute chains within one loop."""
        # Names whose binding legitimately changes per iteration.
        rebound: set[str] = set()
        for n in ast.walk(loop):
            if isinstance(n, ast.For):
                for t in ast.walk(n.target):
                    if isinstance(t, ast.Name):
                        rebound.add(t.id)
            elif isinstance(n, ast.Assign):
                for t in n.targets:
                    for sub in ast.walk(t):
                        if isinstance(sub, ast.Name):
                            rebound.add(sub.id)
            elif isinstance(n, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(n.target, ast.Name):
                    rebound.add(n.target.id)
            elif isinstance(n, ast.withitem) and n.optional_vars is not None:
                for sub in ast.walk(n.optional_vars):
                    if isinstance(sub, ast.Name):
                        rebound.add(sub.id)

        counts: dict[str, list[ast.expr]] = {}
        iter_nodes = set()
        if iter_node is not None:
            iter_nodes = {id(sub) for sub in ast.walk(iter_node)}
        seen: set[int] = set()
        for stmt in body:
            for n in ast.walk(stmt):
                if id(n) in iter_nodes or not isinstance(n, ast.Attribute):
                    continue
                if id(n) in seen:
                    continue
                chain = _attr_chain(n)
                if chain is None:
                    continue
                dotted, links = chain
                # Mark sub-chains visited so a.b.c doesn't also count a.b.
                for sub in ast.walk(n):
                    seen.add(id(sub))
                if links < 2:
                    continue
                root = dotted.split(".", 1)[0]
                if root in rebound or root == "_":
                    continue
                counts.setdefault(dotted, []).append(n)
        for dotted, nodes in counts.items():
            if len(nodes) >= 2:
                self._emit(
                    "PERF104", nodes[1],
                    f"{dotted} dereferenced {len(nodes)}x in this loop",
                )

    # -- calls: PERF101/103/105 ---------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self._hot:
            name = _terminal_name(node.func)
            # PERF101: churned slotless class instantiation
            if (
                isinstance(node.func, (ast.Name, ast.Attribute))
                and name in self.slotless
            ):
                info = self.slotless[name]
                self._emit(
                    "PERF101", node,
                    f"instantiates slotless class {name} "
                    f"(defined at {info.path}:{info.line})",
                )
            # PERF103: eager label flowing into a sink
            if name in _LABEL_SINKS and self._func_name not in _PERF103_EXEMPT:
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    if _is_label_expr(arg):
                        self._emit(
                            "PERF103", arg,
                            f"label built eagerly in call to {name}()",
                        )
            # PERF105: list.pop(0)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
            ):
                self._emit(
                    "PERF105", node,
                    ".pop(0) shifts the whole list; use collections.deque",
                )
            # PERF105: sorted()/min()/max() over a container inside a loop
            if (
                self._loop_depth > 0
                and isinstance(node.func, ast.Name)
                and (
                    node.func.id == "sorted"
                    or (node.func.id in ("min", "max") and len(node.args) == 1)
                )
                and node.args
            ):
                self._emit(
                    "PERF105", node,
                    f"{node.func.id}() rescans its container on every "
                    "iteration of this loop",
                )
        self.generic_visit(node)

    # -- PERF103 in return position ------------------------------------------
    def visit_Return(self, node: ast.Return) -> None:
        if (
            self._hot
            and node.value is not None
            and self._func_name not in _PERF103_EXEMPT
        ):
            # Walk the whole return expression: conditional returns
            # (``f"..." if x else y``) still build the label eagerly.
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.expr) and _is_label_expr(sub):
                    self._emit(
                        "PERF103", sub,
                        "label built eagerly on every call (return position)",
                    )
                    break
        self.generic_visit(node)

    # -- PERF105 membership against a known list ------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if self._hot:
            for op, rhs in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.In, ast.NotIn)):
                    continue
                is_list = (
                    isinstance(rhs, ast.Name) and rhs.id in self._local_lists
                ) or (
                    isinstance(rhs, ast.Attribute)
                    and rhs.attr in self.list_attrs
                )
                if is_list:
                    target = ast.unparse(rhs)
                    self._emit(
                        "PERF105", node,
                        f"membership test against list {target} is O(n) "
                        "per call",
                    )
        self.generic_visit(node)

    # -- PERF105 dict/set rebuilds in loops -----------------------------------
    def visit_Dict(self, node: ast.Dict) -> None:
        if self._hot and self._loop_depth > 0 and node.keys:
            self._emit(
                "PERF105", node,
                "dict literal rebuilt on every iteration of this loop",
            )
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if self._hot and self._loop_depth > 0:
            self._emit(
                "PERF105", node,
                "dict rebuilt by comprehension on every iteration of this loop",
            )
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        if self._hot and self._loop_depth > 0:
            self._emit(
                "PERF105", node,
                "set rebuilt by comprehension on every iteration of this loop",
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# list-attribute inventory (PERF105 membership on self.<attr>)
# ---------------------------------------------------------------------------

def _scan_list_attrs(files: list[SourceFile]) -> set[str]:
    """Attribute names bound to lists (``self.x = []``) and never to a
    different container anywhere in the file set."""
    listish: set[str] = set()
    otherish: set[str] = set()
    for f in files:
        for node in ast.walk(f.tree):
            if isinstance(node, ast.Assign):
                targets, value, ann = node.targets, node.value, None
            elif isinstance(node, ast.AnnAssign):
                targets, value, ann = [node.target], node.value, node.annotation
            else:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                is_list = isinstance(value, (ast.List, ast.ListComp)) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in ("list", "sorted")
                )
                if ann is not None and not is_list:
                    is_list = ast.unparse(ann).split("[")[0] in _LIST_ANNOTATIONS
                if is_list:
                    listish.add(target.attr)
                elif value is not None:
                    otherish.add(target.attr)
    return listish - otherish


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

@dataclass
class PerfLint:
    """The result of a ``--perf`` pass over one file set."""

    violations: list[Violation]
    stale_waivers: list[StaleWaiver]
    n_files: int
    n_hot: int
    all_hot: bool

    @property
    def clean(self) -> bool:
        return not self.violations and not self.stale_waivers


def perf_lint_files(program: Program) -> PerfLint:
    """Run the hot-path analyzer over a :class:`.program.Program`."""
    graph = program.graph
    classes = _scan_classes(program.files)
    hot, churned, all_hot = _hot_set(graph, classes)
    list_attrs = _scan_list_attrs(program.files)

    # PERF101 candidates: churned classes that could take __slots__.
    slotless: dict[str, _ClassInfo] = {}
    for cname in sorted(churned):
        for info in classes.get(cname, ()):
            if not info.slotted and not info.exceptionish and info.known_bases:
                slotless[cname] = info
                break

    hot_by_path: dict[str, set[str]] = {}
    for key in hot:
        info = graph.functions[key]
        hot_by_path.setdefault(info.path, set()).add(info.qualname)

    # Dedupe (nested loops can re-count the same chain).
    found: dict[tuple, Violation] = {}
    for f in program.files:
        visitor = _PerfVisitor(
            f.path,
            hot_by_path.get(f.path, set()),
            all_hot,
            slotless,
            list_attrs,
        )
        visitor.visit(f.tree)
        for v in visitor.violations:
            found.setdefault((v.path, v.rule, v.line, v.col), v)
    violations, stale = program.waive(found.values(), "perf")
    return PerfLint(
        violations, stale, n_files=len(program.files), n_hot=len(hot), all_hot=all_hot
    )


def perf_lint_tree(paths: list[str]) -> PerfLint:
    """Analyze every ``.py`` file under the given files/directories."""
    return perf_lint_files(Program.read(paths))


def perf_lint_source(source: str, path: str = "<string>") -> list[Violation]:
    """Analyze one module's source text (the fixture-test entry point).

    With no kernel module present every function counts as hot.
    """
    return perf_lint_files(Program([(path, source)])).violations
