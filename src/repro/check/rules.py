"""AST rules for the sim-safety linter (``repro check``).

Each rule guards one way the reproduction's bit-for-bit determinism
contract (docs/INTERNALS.md, "Determinism contract") has been broken in
the wild, or plausibly will be:

========  ============================================================
SIM001    wall-clock reads (``time.time`` & friends) in sim code
SIM002    RNG constructed or global-state RNG drawn outside
          :class:`repro.simcore.rand.RandomStreams`
SIM003    salted builtin ``hash()`` used for placement/ordering
SIM005    an event created in a process generator but never yielded
SIM006    ``==``/``!=`` on float sim timestamps (``env.now``)
SIM007    blocking calls (``time.sleep``, bare ``.join()``) in sim code
SIM009    dict keyed by ``id(...)`` — key values are memory addresses,
          so any iteration over it replays in allocation order
SIM011    call into a helper that *transitively* reaches one of these
          primitives (emitted by the interprocedural taint pass with
          the full source→sink chain)
========  ============================================================

The remaining codes police one hazard, an unordered ``set``'s
iteration order leaking into sim behaviour, against one fact
(:mod:`.unordered`).  An order-fixing iteration is SIM004, whatever
carried the set there; the message names the carrier (``(element of
'groups')``, ``(Row.members)``, ...).  A float reduction over any
carrier is SIM008, and a scheduling call inside a loop over any carrier
is SIM010.  SIM013, a set crossing a return or ``yield from`` into the
caller's loop, comes from the taint pass.

The rules are deliberately heuristic: they aim at the handful of
patterns that actually corrupt replay determinism, and anything flagged
in error can be waived inline with ``# simlint: waive SIMxxx -- why``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from .astwalk import NodeVisitor, child_nodes
from .unordered import (
    ITERATING_CALLS,
    UnorderedValues,
    qualname,
    unordered_values,
)

__all__ = ["RULES", "Violation", "collect_violations"]

#: rule code -> one-line rationale (mirrored in docs/INTERNALS.md)
RULES: dict[str, str] = {
    "SIM001": "wall-clock read in sim code; simulated time must come from env.now",
    "SIM002": "RNG constructed/drawn outside simcore.rand.RandomStreams; "
    "use a named stream so draws in one component don't perturb another",
    "SIM003": "builtin hash() is salted per interpreter; use "
    "simcore.rand.stable_hash64 for cross-run-stable placement/ordering",
    "SIM004": "iterating an unordered set; order feeds scheduling/RNG — "
    "iterate sorted(...) or keep an ordered structure",
    "SIM005": "event created but discarded inside a process generator; "
    "did you forget to yield it?",
    "SIM006": "== / != on float sim timestamps; compare with <=/>= or a tolerance",
    "SIM007": "blocking call in sim code; real threads/sleeps break the "
    "single-threaded deterministic event loop",
    "SIM008": "float reduction over an unordered set; FP addition is "
    "non-associative, so accumulation order changes the result — "
    "reduce over sorted(...) or an ordered container",
    "SIM009": "dict keyed by id(...); id values are memory addresses that "
    "differ across runs, so iterating the dict (or sorting its keys) "
    "replays in allocation order — key by a stable identity instead",
    "SIM010": "event scheduling from iteration over an unordered set; the "
    "trigger/callback/spawn order becomes the set's hash order, which is "
    "exactly the heap insertion sequence the kernel ties on — iterate "
    "sorted(...) or keep an ordered structure",
    "SIM011": "call into a helper that transitively reaches a "
    "nondeterminism primitive (wall clock, unmanaged RNG, salted hash(), "
    "unordered-set iteration, blocking call); fix at the source or waive "
    "the call site — reported by the interprocedural taint pass",
    "SIM013": "iterating the result of a call whose callee (transitively) "
    "returns or yields from an unordered container; hash order crosses "
    "the return or the yield path into the caller's loop, where local set "
    "tracking cannot see it — return/yield from sorted(...) in the "
    "producer or sort at the call site — reported by the interprocedural "
    "taint pass",
}

#: SIM001 targets (fully-qualified after import-alias resolution)
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: SIM002 targets: RNG constructors and module-global-state draws
_RNG_CONSTRUCT = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
}
_RNG_GLOBAL_DRAW = {
    "random.seed",
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.gauss",
    "numpy.random.seed",
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.randint",
    "numpy.random.random",
    "numpy.random.choice",
    "numpy.random.shuffle",
    "numpy.random.permutation",
    "numpy.random.uniform",
}

#: SIM005: pure-condition factories whose result is useless unless yielded
_EVENT_FACTORIES = {"timeout", "event", "all_of", "any_of"}

#: SIM007 module-level blocking calls
_BLOCKING = {"time.sleep", "input"}

#: SIM008 qualified float reducers (the ``sum`` builtin is special-cased)
_FLOAT_REDUCERS = {"math.fsum", "numpy.sum", "numpy.nansum"}


@dataclass(frozen=True)
class Violation:
    """One rule hit, addressable as ``path:line``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


def _root_name(node: ast.expr) -> str | None:
    """The leftmost name of an attribute chain (``a`` for ``a.b.c``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _SimVisitor(NodeVisitor):
    """One file's worth of rule checks."""

    def __init__(self, path: str, scope: str, active: set[str],
                 facts: UnorderedValues):
        self.path = path
        self.scope = scope  # "sim" | "runtime"
        self.active = active
        self.violations: list[Violation] = []
        self._facts = facts
        #: stack of (function node, is_generator)
        self._funcs: list[tuple[ast.AST, bool]] = []
        #: nesting depth of loops/comprehensions iterating a set (SIM010)
        self._set_iter_depth = 0

    # -- plumbing ---------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str | None = None) -> None:
        if rule not in self.active:
            return
        self.violations.append(
            Violation(
                rule,
                self.path,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                message or RULES[rule],
            )
        )

    # -- unordered values (SIM004/008/010) -----------------------------------
    def _check_iteration(self, iter_node: ast.expr) -> bool:
        """Report an order-fixing iteration as SIM004 with its carrier's
        detail; True if the value is unordered."""
        carrier = self._facts.carrier(iter_node)
        if carrier is None:
            return False
        self._emit("SIM004", iter_node, RULES["SIM004"] + carrier)
        return True

    def _visit_set_loop(self, node, over_set: bool) -> None:
        self._set_iter_depth += over_set
        self.generic_visit(node)
        self._set_iter_depth -= over_set

    def visit_For(self, node: ast.For) -> None:
        self._visit_set_loop(node, self._check_iteration(node.iter))

    def _visit_comp(self, node) -> None:
        over_set = False
        for gen in node.generators:
            over_set = self._check_iteration(gen.iter) or over_set
        self._visit_set_loop(node, over_set)

    visit_ListComp = visit_SetComp = visit_GeneratorExp = _visit_comp

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if self._is_id_call(node.key):
            self._emit("SIM009", node)
        self._visit_comp(node)

    # -- id()-keyed dicts (SIM009) ------------------------------------------
    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # d[id(x)] — reads and writes alike seed an address-keyed table;
        # id(x) in a *set* (pure membership, never iterated for order)
        # stays legal, which is why the rule keys on subscripts.
        if self._is_id_call(node.slice):
            self._emit("SIM009", node)
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        if any(key is not None and self._is_id_call(key) for key in node.keys):
            self._emit("SIM009", node)
        self.generic_visit(node)

    # -- function context (SIM005/SIM007) ----------------------------------
    @staticmethod
    def _is_generator(node) -> bool:
        """Does this function contain a yield of its own (ignoring
        nested defs/lambdas)?"""
        stack = child_nodes(node)
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                return True
            stack.extend(child_nodes(child))
        return False

    def _visit_func(self, node) -> None:
        self._funcs.append((node, self._is_generator(node)))
        self.generic_visit(node)
        self._funcs.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_func

    @property
    def _in_generator(self) -> bool:
        return bool(self._funcs) and self._funcs[-1][1]

    # -- statement-level (SIM005) -------------------------------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if self._in_generator and isinstance(value, ast.Call):
            func = value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _EVENT_FACTORIES
                and (_root_name(func.value) or "").endswith("env")
            ) or (
                isinstance(func, ast.Name)
                and func.id in ("Timeout", "AllOf", "AnyOf")
            ):
                self._emit("SIM005", node)
        self.generic_visit(node)

    # -- comparisons (SIM006) ------------------------------------------------
    @staticmethod
    def _is_sim_clock(node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "now"

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                self._is_sim_clock(lhs) or self._is_sim_clock(rhs)
            ):
                self._emit("SIM006", node)
                break
        self.generic_visit(node)

    # -- calls (SIM001/002/003/007) -------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        qual = qualname(node.func, self._facts.imports)
        if qual is not None:
            if self.scope == "sim" and qual in _WALL_CLOCK:
                self._emit("SIM001", node)
            if qual in _RNG_CONSTRUCT:
                self._emit("SIM002", node)
            elif qual in _RNG_GLOBAL_DRAW:
                self._emit(
                    "SIM002", node,
                    RULES["SIM002"] + " (module-global RNG state)",
                )
            if self.scope == "sim" and qual in _BLOCKING:
                self._emit("SIM007", node)
        builtin = node.func.id if isinstance(node.func, ast.Name) else None
        if builtin == "hash":
            self._emit("SIM003", node)
        if node.args and builtin in ITERATING_CALLS:
            # materializing/iterating a set fixes its (unordered) order
            self._check_iteration(node.args[0])
        if node.args and (builtin == "sum" or qual in _FLOAT_REDUCERS):
            # accumulation order over a set is the hash order; float
            # addition is non-associative, so the total drifts with it
            carrier = self._facts.carrier(node.args[0])
            if carrier is not None:
                self._emit("SIM008", node, RULES["SIM008"] + carrier)
        if (
            self.scope == "sim"
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and not node.args
            and all(kw.arg == "timeout" for kw in node.keywords)
        ):
            # str.join always takes a positional iterable; a bare
            # .join() / .join(timeout=...) is a thread join.
            self._emit("SIM007", node, RULES["SIM007"] + " (thread join)")
        if self._set_iter_depth > 0 and self._is_scheduling_call(node):
            # the set's hash order becomes the callback/trigger/spawn
            # order, i.e. the kernel's same-timestamp tie-break order
            self._emit("SIM010", node)
        self.generic_visit(node)

    @staticmethod
    def _is_scheduling_call(node: ast.Call) -> bool:
        """Calls that feed the event queue: triggering an event,
        registering a callback, or spawning a process."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr in ("succeed", "fail", "trigger", "interrupt"):
            return True
        if (
            func.attr == "append"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "callbacks"
        ):
            return True
        return func.attr == "process" and (
            (_root_name(func.value) or "").endswith("env")
        )


def collect_violations(
    tree: ast.AST,
    path: str,
    scope: str = "sim",
    rules: Iterable[str] | None = None,
) -> list[Violation]:
    """All rule hits in one parsed module.

    ``scope`` is ``"sim"`` for code that runs under the DES kernel and
    ``"runtime"`` for code that legitimately touches real clocks and
    threads (``repro.runtime``); the wall-clock and blocking rules only
    apply to sim scope.
    """
    active = set(rules) if rules is not None else set(RULES)
    visitor = _SimVisitor(path, scope, active, unordered_values(tree))
    visitor.visit(tree)
    return visitor.violations
