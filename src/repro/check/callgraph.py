"""Module-level call graph for the interprocedural taint pass.

The per-function AST rules in :mod:`.rules` see one function body at a
time, so a wall-clock read (or any other nondeterminism primitive)
hidden one call deep in a helper — possibly in another module — is
invisible at the call site.  This module parses a set of files together
and extracts, per function:

* the nondeterminism *primitives* its body touches directly
  (wall clocks, non-``RandomStreams`` RNG, salted ``hash()``,
  iteration of an unordered value, blocking calls), minus any that
  carry an inline ``# simlint: waive`` — a waived primitive is a
  sanctioned site, not a taint source;
* its outgoing *call sites*, resolved through import aliases, relative
  imports, one level of package re-export, and ``self.``/``cls.``
  method dispatch;
* which of its *parameters* it iterates (directly or by passing them
  on), so a caller handing a ``set`` to an innocent-looking helper is
  still caught;
* whether it *returns* an unordered container — directly, or verbatim
  through another call (resolved by a fixpoint in :mod:`.taint`) — and
  which of its call sites feed a ``for``/comprehension, so hash order
  crossing a return boundary is flagged at the loop (SIM013).

Whether an expression is unordered is the per-module fact of
:mod:`.unordered`, shared with the per-file rules.  :mod:`.taint` runs
the interprocedural fixpoint over this graph.
Resolution is deliberately conservative: a call that cannot be resolved
to a known function contributes nothing (no false SIM011s from duck
typing), and ``obj.method()`` on an unknown object is skipped.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from .rules import (
    _BLOCKING,
    _RNG_CONSTRUCT,
    _RNG_GLOBAL_DRAW,
    _WALL_CLOCK,
)
from .unordered import qualname, strip_order_preserving, unordered_values

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "TaintSource",
    "module_matches",
    "module_name_for",
]

#: maximum re-export hops followed when resolving ``from pkg import name``
_REEXPORT_DEPTH = 3


@dataclass(frozen=True)
class TaintSource:
    """A nondeterminism primitive touched directly by one function."""

    rule: str  #: SIM001/002/003/007, or an unordered value's carrier code
    kind: str  #: human-readable primitive, e.g. ``"wall-clock read time.time"``
    line: int  #: line within the defining file


@dataclass
class CallSite:
    """One outgoing call from a function body."""

    line: int
    col: int
    display: str  #: the call target as written in source ("helpers.now")
    ref: tuple | None  #: unresolved reference, resolved in :meth:`CallGraph.build`
    target: str | None = None  #: resolved function key, if any
    set_args: tuple[int, ...] = ()  #: positional args that are known sets
    param_args: tuple[tuple[int, str], ...] = ()  #: (pos, caller param) pass-throughs
    in_return: bool = False  #: the call is the caller's ``return`` expression
    in_yield_from: bool = False  #: the call is a ``yield from`` delegate
    iterated: bool = False  #: the call's result feeds a ``for``/comprehension


@dataclass
class FunctionInfo:
    """One module- or class-level function and its taint-relevant facts."""

    key: str  #: graph key: ``"<module>::<qualname>"``
    module: str
    qualname: str
    path: str
    line: int
    scope: str  #: ``"sim"`` | ``"runtime"`` (from :func:`.program.scope_of`)
    params: tuple[str, ...]  #: positional params, ``self``/``cls`` stripped
    sources: list[TaintSource] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    iterated_params: set[str] = field(default_factory=set)
    returns_unordered: bool = False  #: returns a set expr (or, after the
    #: fixpoint in :mod:`.taint`, passes through a callee that does)
    yields_unordered: bool = False  #: ``yield from``-s a set expr (or,
    #: after the fixpoint in :mod:`.taint`, delegates to one that does)


def module_name_for(path: str) -> str:
    """A dotted module name derived from the file path.

    Only used for *suffix* matching during import resolution, so the
    leading directories (``src``, a tmp dir, ...) are harmless.
    """
    norm = os.path.normpath(path)
    if norm.endswith(".py"):
        norm = norm[:-3]
    parts = [p for p in norm.split(os.sep) if p not in ("", ".", "..")]
    return ".".join(parts)


def module_matches(module: str, suffixes: tuple[str, ...]) -> bool:
    """Is ``module`` one of ``suffixes``, or a module ending in one?"""
    return any(module == s or module.endswith("." + s) for s in suffixes)


def _anchored_imports(imports: dict[str, str], module: str) -> dict[str, str]:
    """Resolve relative import targets (``.x.y``) against ``module``'s
    package; a relative import with nothing to anchor on is dropped."""
    out: dict[str, str] = {}
    for alias, target in imports.items():
        level = len(target) - len(target.lstrip("."))
        if level:
            parts = module.split(".")
            anchor = parts[: len(parts) - level]
            rest = target[level:]
            if not anchor and "." not in rest:
                continue
            target = ".".join([*anchor, rest])
        out[alias] = target
    return out


def _never_waived(line: int, rule: str) -> bool:
    return False


class _ModuleScanner(ast.NodeVisitor):
    """Extract :class:`FunctionInfo` records from one parsed module."""

    def __init__(self, module: str, path: str, scope: str, waived, tree: ast.AST):
        self.module = module
        self.path = path
        self.scope = scope
        self._waived = waived or _never_waived  # callable (line, rule) -> bool
        self._facts = unordered_values(tree)
        self.functions: dict[str, FunctionInfo] = {}
        self.imports = _anchored_imports(self._facts.imports, module)
        self._class_stack: list[str] = []
        self._func_stack: list[FunctionInfo] = []
        self._nested_depth = 0  # inside a nested def: returns belong to it
        self._return_calls: set[int] = set()  # id()s of return-position Calls
        self._yield_calls: set[int] = set()  # id()s of yield-from delegate Calls
        self._iterated_calls: set[int] = set()  # id()s of for/comp-iter Calls

    # -- function / class structure ----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        if self._func_stack:
            # Nested def: attribute its body to the enclosing function
            # (conservative: a closure's primitives taint the parent) —
            # except its returns, which do not leave the parent.
            self._nested_depth += 1
            self.generic_visit(node)
            self._nested_depth -= 1
            return
        qual = ".".join([*self._class_stack, node.name])
        params = [a.arg for a in (*node.args.posonlyargs, *node.args.args)]
        if self._class_stack and params and params[0] in ("self", "cls"):
            params = params[1:]
        info = FunctionInfo(
            key=f"{self.module}::{qual}",
            module=self.module,
            qualname=qual,
            path=self.path,
            line=node.lineno,
            scope=self.scope,
            params=tuple(params),
        )
        self.functions[qual] = info
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_func

    # -- primitives and call sites -----------------------------------------
    def _source(self, rule: str, kind: str, node: ast.AST) -> None:
        if not self._func_stack:
            return  # module-level code: nothing to taint through
        if self._waived(node.lineno, rule):
            return  # explicitly sanctioned: not a taint source
        self._func_stack[-1].sources.append(TaintSource(rule, kind, node.lineno))

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if not self._func_stack:
            return
        info = self._func_stack[-1]
        if isinstance(iter_node, ast.Name) and iter_node.id in info.params:
            info.iterated_params.add(iter_node.id)
        elif (carrier := self._facts.carrier(iter_node, self.scope)) is not None:
            self._source(carrier[0], "unordered-set iteration", iter_node)
        # SIM013: mark call results that feed the loop, unwrapping
        # order-preserving shims (``sorted(f())`` neutralizes and is
        # not unwrapped, so it never marks the inner call).
        node = strip_order_preserving(iter_node)
        if isinstance(node, ast.Call):
            self._iterated_calls.add(id(node))

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        # SIM013 bookkeeping: a function that returns a set expression
        # hands unordered iteration order to every caller; one that
        # returns another call's result verbatim may do so transitively
        # (resolved by the fixpoint in :mod:`.taint`).  Nested defs keep
        # their returns to themselves.
        if self._func_stack and not self._nested_depth and node.value is not None:
            info = self._func_stack[-1]
            if self._waived(node.lineno, "SIM013"):
                pass  # sanctioned producer: never a SIM013 source
            elif self._facts.carrier(node.value, self.scope) is not None:
                info.returns_unordered = True
            elif isinstance(node.value, ast.Call):
                self._return_calls.add(id(node.value))
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        # SIM014 bookkeeping: ``yield from <set>`` drains the container
        # in hash order, and ``yield from g(...)`` forwards whatever
        # order the delegate produces (resolved by the fixpoint in
        # :mod:`.taint`).  Order-preserving shims are unwrapped just as
        # at iteration sites, so ``yield from list(g())`` still follows
        # g; ``sorted(...)`` neutralizes.  Nested defs keep their
        # yields to themselves.
        if self._func_stack and not self._nested_depth:
            info = self._func_stack[-1]
            value = strip_order_preserving(node.value)
            if self._waived(node.lineno, "SIM014"):
                pass  # sanctioned producer: never a SIM014 source
            elif self._facts.carrier(value, self.scope) is not None:
                info.yields_unordered = True
            elif isinstance(value, ast.Call):
                self._yield_calls.add(id(value))
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = visit_SetComp = visit_GeneratorExp = visit_DictComp = _visit_comp

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        qual = qualname(func, self.imports) if isinstance(func, (ast.Attribute, ast.Name)) else None
        if qual is not None:
            if qual in _WALL_CLOCK:
                self._source("SIM001", f"wall-clock read {qual}", node)
            elif qual in _RNG_CONSTRUCT or qual in _RNG_GLOBAL_DRAW:
                self._source("SIM002", f"unmanaged RNG {qual}", node)
            elif qual in _BLOCKING:
                self._source("SIM007", f"blocking call {qual}", node)
        if isinstance(func, ast.Name) and func.id == "hash":
            self._source("SIM003", "salted builtin hash()", node)
        self._record_call(node)
        self.generic_visit(node)

    def _record_call(self, node: ast.Call) -> None:
        if not self._func_stack:
            return
        info = self._func_stack[-1]
        func = node.func
        ref: tuple | None = None
        display = ""
        if isinstance(func, ast.Name):
            display = func.id
            ref = ("name", func.id)
        elif isinstance(func, ast.Attribute):
            root = func.value
            chain = [func.attr]
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name):
                chain.append(root.id)
                chain.reverse()
                display = ".".join(chain)
                if root.id in ("self", "cls") and len(chain) == 2 and self._class_stack:
                    ref = ("self", self._class_stack[-1], chain[1])
                else:
                    ref = ("dotted", tuple(chain))
        if ref is None:
            return
        set_args = tuple(
            i for i, a in enumerate(node.args)
            if self._facts.carrier(a, self.scope) is not None
        )
        param_args = tuple(
            (i, a.id)
            for i, a in enumerate(node.args)
            if isinstance(a, ast.Name) and a.id in info.params
        )
        info.calls.append(
            CallSite(
                line=node.lineno,
                col=node.col_offset,
                display=display,
                ref=ref,
                set_args=set_args,
                param_args=param_args,
                in_return=id(node) in self._return_calls,
                in_yield_from=id(node) in self._yield_calls,
                iterated=id(node) in self._iterated_calls,
            )
        )


class _Module:
    __slots__ = ("name", "path", "scope", "functions", "imports")

    def __init__(self, name, path, scope, functions, imports):
        self.name = name
        self.path = path
        self.scope = scope
        self.functions = functions  # qualname -> FunctionInfo
        self.imports = imports  # alias -> dotted target


class CallGraph:
    """All functions across a file set, with resolved call edges."""

    def __init__(self):
        self.modules: dict[str, _Module] = {}
        self.functions: dict[str, FunctionInfo] = {}

    # -- construction -------------------------------------------------------
    @classmethod
    def build(cls, files) -> "CallGraph":
        """``files`` is an iterable of ``(path, tree, scope, waived)``
        where ``waived`` is a ``(line, rule) -> bool`` callable."""
        graph = cls()
        for path, tree, scope, waived in files:
            module = module_name_for(path)
            scanner = _ModuleScanner(module, path, scope, waived, tree)
            scanner.visit(tree)
            graph.modules[module] = _Module(
                module, path, scope, scanner.functions, scanner.imports
            )
            for info in scanner.functions.values():
                graph.functions[info.key] = info
        graph._resolve_calls()
        return graph

    # -- import / call resolution -------------------------------------------
    def _find_module(self, dotted: str) -> _Module | None:
        """Exact key, dotted-suffix match, or the package ``__init__``."""
        for candidate in (dotted, f"{dotted}.__init__"):
            if candidate in self.modules:
                return self.modules[candidate]
        tail = "." + dotted
        init_tail = tail + ".__init__"
        hits = [
            m
            for name, m in self.modules.items()
            if name.endswith(tail) or name.endswith(init_tail)
        ]
        return hits[0] if len(hits) == 1 else None

    def _function_in(self, mod: _Module, name: str, depth: int = 0):
        """``name`` may be ``func`` or ``Class.method``; follows one
        level of ``from .x import name`` re-export per hop."""
        if name in mod.functions:
            return mod.functions[name]
        if depth >= _REEXPORT_DEPTH:
            return None
        head = name.split(".", 1)[0]
        target = mod.imports.get(head)
        if target is None:
            return None
        rest = name[len(head):]  # "" or ".method"
        return self._resolve_dotted(tuple((target + rest).split(".")), depth + 1)

    def _resolve_dotted(self, chain: tuple[str, ...], depth: int = 0):
        """Resolve ``("pkg", "mod", "Class", "meth")``-style chains by
        trying every module/function split point, longest module first."""
        for split in range(len(chain) - 1, 0, -1):
            mod = self._find_module(".".join(chain[:split]))
            if mod is None:
                continue
            found = self._function_in(mod, ".".join(chain[split:]), depth)
            if found is not None:
                return found
        return None

    def _resolve(self, mod: _Module, ref: tuple):
        kind = ref[0]
        if kind == "self":
            _, klass, name = ref
            return mod.functions.get(f"{klass}.{name}")
        if kind == "name":
            name = ref[1]
            if name in mod.functions:
                return mod.functions[name]
            target = mod.imports.get(name)
            if target is not None:
                return self._resolve_dotted(tuple(target.split(".")))
            return None
        # ("dotted", chain): resolve the leading alias, then the chain
        chain = list(ref[1])
        chain[0] = mod.imports.get(chain[0], chain[0])
        flat: list[str] = []
        for part in chain:
            flat.extend(part.split("."))
        return self._resolve_dotted(tuple(flat))

    def _resolve_calls(self) -> None:
        for mod in self.modules.values():
            for info in mod.functions.values():
                for call in info.calls:
                    target = self._resolve(mod, call.ref)
                    if target is not None and target.key != info.key:
                        call.target = target.key
