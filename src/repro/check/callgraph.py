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
* whether it *produces* unordered order: returns or ``yield from``-s an
  unordered container — directly, or verbatim through another call
  (resolved by a fixpoint in :mod:`.taint`) — and which of its call
  sites feed a ``for``/comprehension, so hash order crossing a return
  or a yield path is flagged at the loop (SIM013);
* its ``self``-attribute *writes* (assign, augment, ``del``, in-place
  mutator calls, through local aliases such as ``w = self._wakeups``)
  and its concurrency *roots*: ``env.process(gen(...))`` spawns, which
  point at the call site of ``gen(...)``, and RPC-handler registrations
  (``endpoint.register(op, self._handle)``), whose handler references
  are resolved like calls but never become call edges.

Per module it also records what the shared-state audit
(:mod:`.cells`, :mod:`.cell_registry`) needs to resolve cell names:
every ``note_access`` call with its name expression, mode and the
enclosing function's locals and parameters, and the string-template
*stores* (``self`` attribute and element stores, template returns).

One walk attributes every statement to a function: a nested def's body
belongs to its enclosing top-level function, except its returns.

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

from .astwalk import NodeVisitor
from .rules import (
    _BLOCKING,
    _RNG_CONSTRUCT,
    _RNG_GLOBAL_DRAW,
    _WALL_CLOCK,
)
from .unordered import qualname, strip_order_preserving, unordered_values

__all__ = [
    "AttrWrite",
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "NoteCall",
    "SpawnRoot",
    "TaintSource",
    "TemplateStores",
    "module_matches",
    "module_name_for",
]

#: maximum re-export hops followed when resolving ``from pkg import name``
_REEXPORT_DEPTH = 3

#: method names that mutate their receiver in place
_MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popleft", "remove", "setdefault", "update",
}


@dataclass(frozen=True)
class TaintSource:
    """A nondeterminism primitive touched directly by one function."""

    rule: str  #: SIM001/002/003/007, or SIM004 for unordered iteration
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
    #: the call is the caller's ``return`` expression or ``yield from``
    #: delegate, so its result's order is the caller's
    forwarded: bool = False
    iterated: bool = False  #: the call's result feeds a ``for``/comprehension


@dataclass(frozen=True)
class AttrWrite:
    """One write to a ``self``-rooted attribute chain."""

    line: int
    col: int
    attr: str  #: dotted chain below the receiver ("x" or "x.y")
    verb: str  #: "assign" | "augment" | "del" | a mutator name
    nested: bool  #: made in a def nested in the function


@dataclass
class SpawnRoot:
    """A body that runs as its own process: a spawn or a handler."""

    site: CallSite | None  #: ``gen(...)`` of ``env.process(gen(...))``, or
    #: the handler reference of a registration; None when the spawned
    #: body has no call site (its code runs in the enclosing function)
    replicated: bool  #: spawned in a loop, or a re-entrant RPC handler


@dataclass
class NoteCall:
    """One ``note_access(name, mode)`` call, its name not yet resolved."""

    line: int
    col: int
    func: str  #: enclosing top-level qualname ("" at module level)
    klass: str  #: innermost enclosing class ("" outside one)
    receiver: str  #: the enclosing method's first parameter
    name: ast.expr  #: the cell-name expression as written
    mode: str  #: "r" | "w" | "?" when not a literal
    forwarded: bool  #: the name is a bare parameter pass-through
    local_assigns: dict[str, list[ast.expr]]  #: the function's local
    #: assignments made before the call, name -> values


@dataclass
class TemplateStores:
    """String-template stores, ``(class, name) -> [(class, receiver,
    expr), ...]`` with ``receiver`` the storing function's first
    parameter, for cell-name resolution."""

    direct: dict = field(default_factory=dict)  #: ``self.attr = expr``
    #: element stores: subscript stores, dict and dict-comp values,
    #: ``setdefault`` defaults
    elements: dict = field(default_factory=dict)
    #: ``(class, def name)`` -> returned f-string/constant/call exprs
    returns: dict = field(default_factory=dict)


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
    produces_unordered: bool = False  #: returns or ``yield from``-s a set
    #: expr (or, after the fixpoint in :mod:`.taint`, forwards a call to
    #: a function that does)
    writes: list[AttrWrite] = field(default_factory=list)
    roots: list[SpawnRoot] = field(default_factory=list)
    #: handler references of registrations: resolved, never call edges
    handlers: list[CallSite] = field(default_factory=list)


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


def _owner_name(node: ast.expr) -> str:
    """The last name of a call's receiver (``env`` of ``self.env``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


class _ModuleScanner(NodeVisitor):
    """Extract :class:`FunctionInfo` records from one parsed module.

    Three receiver rules apply, each in one place: call dispatch
    follows only ``self.``/``cls.`` (:meth:`_record_call`); writes,
    note sites and handler references follow the top-level method's
    first parameter (:meth:`_is_receiver`); template stores follow the
    innermost def's first parameter (:meth:`_is_store_receiver`).
    """

    def __init__(self, module: str, path: str, scope: str, waived, tree: ast.AST):
        self.module = module
        self.path = path
        self.scope = scope
        self._waived = waived or _never_waived  # callable (line, rule) -> bool
        self._facts = unordered_values(tree)
        self.functions: dict[str, FunctionInfo] = {}
        self.imports = _anchored_imports(self._facts.imports, module)
        self.stores = TemplateStores()
        self.notes: list[NoteCall] = []
        self._class_stack: list[str] = []
        self._func_stack: list[FunctionInfo] = []
        self._nested_depth = 0  # inside a nested def: returns belong to it
        self._forwarded_calls: set[int] = set()  # id()s of return/yield-from Calls
        self._iterated_calls: set[int] = set()  # id()s of for/comp-iter Calls
        self._spawned: dict[ast.Call, SpawnRoot] = {}  # gen(...) -> its root
        self._loop_depth = 0  # inside a loop body: spawns are replicated
        self._receiver = "self"  # the top-level method's first parameter
        self._store_receiver = "self"  # the innermost def's first parameter
        self._def_name: str | None = None  # the innermost def
        #: local alias -> self attribute it names (``w = self._wakeups``)
        self._aliases: dict[str, str] = {}
        #: the top-level function's local assignments, name -> values
        self._locals: dict[str, list[ast.expr]] = {}
        self._params: set[str] = set()  # ... and all its parameter names

    # -- function / class structure ----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        args = [*node.args.posonlyargs, *node.args.args]
        saved = self._store_receiver, self._def_name
        self._store_receiver = args[0].arg if args else "self"
        self._def_name = node.name
        if self._func_stack:
            # Nested def: attribute its body to the enclosing function
            # (conservative: a closure's primitives taint the parent) —
            # except its returns, which do not leave the parent.
            self._nested_depth += 1
            self.generic_visit(node)
            self._nested_depth -= 1
        else:
            self._visit_top(node, args)
        self._store_receiver, self._def_name = saved

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_func

    def _visit_top(self, node, args: list[ast.arg]) -> None:
        qual = ".".join([*self._class_stack, node.name])
        params = [a.arg for a in args]
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
        saved = self._receiver, self._aliases, self._locals, self._params, self._loop_depth
        self._receiver = args[0].arg if (args and self._class_stack) else "self"
        self._aliases, self._locals, self._loop_depth = {}, {}, 0
        self._params = {a.arg for a in (*args, *node.args.kwonlyargs)}
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()
        self._receiver, self._aliases, self._locals, self._params, self._loop_depth = saved

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
        elif self._facts.carrier(iter_node) is not None:
            self._source("SIM004", "unordered-set iteration", iter_node)
        # SIM013: mark call results that feed the loop, unwrapping
        # order-preserving shims (``sorted(f())`` neutralizes and is
        # not unwrapped, so it never marks the inner call).
        node = strip_order_preserving(iter_node)
        if isinstance(node, ast.Call):
            self._iterated_calls.add(id(node))

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.visit(node.target)
        self.visit(node.iter)
        self._visit_loop_body(node)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._visit_loop_body(node)

    def _visit_loop_body(self, node: ast.For | ast.While) -> None:
        self._loop_depth += 1
        for stmt in (*node.body, *node.orelse):
            self.visit(stmt)
        self._loop_depth -= 1

    def visit_Return(self, node: ast.Return) -> None:
        # Nested defs keep their returns to themselves.
        if not self._nested_depth and node.value is not None:
            self._note_produced(node.lineno, node.value)
        if self._def_name is not None and isinstance(
            node.value, (ast.JoinedStr, ast.Constant, ast.Call)
        ):
            self._template("returns", self._def_name, node.value)
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        # Order-preserving shims are unwrapped just as at iteration
        # sites, so ``yield from list(g())`` still follows g.  Nested
        # defs keep their yields to themselves.
        if not self._nested_depth:
            self._note_produced(node.lineno, strip_order_preserving(node.value))
        self.generic_visit(node)

    def _note_produced(self, line: int, value: ast.expr) -> None:
        """SIM013 bookkeeping: a function that returns or ``yield
        from``-s a set hands hash order to every caller; one that
        forwards another call's result may do so transitively (resolved
        by the fixpoint in :mod:`.taint`).  ``sorted(...)`` neutralizes."""
        if not self._func_stack or self._waived(line, "SIM013"):
            return  # module level, or a sanctioned producer
        if self._facts.carrier(value) is not None:
            self._func_stack[-1].produces_unordered = True
        elif isinstance(value, ast.Call):
            self._forwarded_calls.add(id(value))

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter)
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

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
        if isinstance(func, ast.Attribute):
            self._method_call(node, func)
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "note_access" and node.args:
            self._note_call(node)
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
            if self._facts.carrier(a) is not None
        )
        param_args = tuple(
            (i, a.id)
            for i, a in enumerate(node.args)
            if isinstance(a, ast.Name) and a.id in info.params
        )
        site = CallSite(
            line=node.lineno,
            col=node.col_offset,
            display=display,
            ref=ref,
            set_args=set_args,
            param_args=param_args,
            forwarded=id(node) in self._forwarded_calls,
            iterated=id(node) in self._iterated_calls,
        )
        info.calls.append(site)
        root = self._spawned.pop(node, None)
        if root is not None:
            root.site = site

    # -- writes, roots and cell-name facts ----------------------------------
    def _is_receiver(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in (self._receiver, "self", "cls")

    def _is_store_receiver(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in (
            self._store_receiver, "self", "cls",
        )

    def _self_chain(self, node: ast.expr) -> str | None:
        """Dotted attribute chain rooted at the receiver (``"x.y"``)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and self._is_receiver(node):
            return ".".join(reversed(parts))
        return None

    def _container_attr(self, node: ast.expr) -> str | None:
        """The attribute ``node`` names: a receiver chain, or a local
        alias of one."""
        if isinstance(node, ast.Attribute):
            return self._self_chain(node)
        if isinstance(node, ast.Name):
            return self._aliases.get(node.id)
        return None

    def _write(self, node: ast.stmt | ast.Call, attr: str | None, verb: str) -> None:
        if attr is not None and self._func_stack:
            self._func_stack[-1].writes.append(
                AttrWrite(node.lineno, node.col_offset, attr, verb, self._nested_depth > 0)
            )

    def _write_target(self, node: ast.stmt, target: ast.expr, verb: str) -> None:
        if isinstance(target, ast.Attribute):
            self._write(node, self._self_chain(target), verb)
        elif isinstance(target, ast.Subscript):
            self._write(node, self._container_attr(target.value), verb)

    def _template(self, kind: str, name: str, expr: ast.expr) -> None:
        klass = self._class_stack[-1] if self._class_stack else ""
        getattr(self.stores, kind).setdefault((klass, name), []).append(
            (klass, self._store_receiver, expr)
        )

    def _store(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Attribute) and self._is_store_receiver(target.value):
            if isinstance(value, ast.Dict):
                for v in value.values:
                    if v is not None:
                        self._template("elements", target.attr, v)
            elif isinstance(value, ast.DictComp):
                self._template("elements", target.attr, value.value)
            else:
                self._template("direct", target.attr, value)
        elif (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and self._is_store_receiver(target.value.value)
        ):
            self._template("elements", target.value.attr, value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._write_target(node, target, "assign")
            self._store(target, node.value)
            if isinstance(target, ast.Name) and self._func_stack:
                value = node.value
                chain = self._self_chain(value) if isinstance(value, ast.Attribute) else None
                if chain is not None and "." not in chain:
                    self._aliases[target.id] = chain
                else:
                    self._aliases.pop(target.id, None)
                self._locals.setdefault(target.id, []).append(value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._write_target(node, node.target, "assign")
            self._store(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._write_target(node, node.target, "augment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._write_target(node, target, "del")
        self.generic_visit(node)

    def _method_call(self, node: ast.Call, func: ast.Attribute) -> None:
        """Mutations, template stores and roots made by ``recv.m(...)``."""
        verb, recv = func.attr, func.value
        if verb in _MUTATORS:
            base = recv.value if isinstance(recv, ast.Subscript) else recv
            self._write(node, self._container_attr(base), verb)
        if (
            verb == "setdefault"
            and isinstance(recv, ast.Attribute)
            and self._is_store_receiver(recv.value)
            and len(node.args) >= 2
        ):
            self._template("elements", recv.attr, node.args[1])
        if not self._func_stack:
            return
        info = self._func_stack[-1]
        owner = _owner_name(recv)
        if verb == "process" and node.args and (
            owner.endswith("env") or owner == "environment"
        ):
            root = SpawnRoot(None, replicated=self._loop_depth > 0)
            info.roots.append(root)
            # The spawned generator's call site, once recorded, is the root.
            self._spawned[node.args[0]] = root
        elif verb == "register" and len(node.args) >= 2 and "endpoint" in owner.lower():
            for arg in node.args[1:]:
                if isinstance(arg, ast.Attribute) and self._is_receiver(arg.value) and self._class_stack:
                    site = CallSite(arg.lineno, arg.col_offset, f"{arg.value.id}.{arg.attr}",
                                    ("self", self._class_stack[-1], arg.attr))
                elif isinstance(arg, ast.Name):
                    site = CallSite(arg.lineno, arg.col_offset, arg.id, ("name", arg.id))
                else:
                    continue
                # Handlers re-enter per incoming message: replicated.
                info.handlers.append(site)
                info.roots.append(SpawnRoot(site, replicated=True))

    def _note_call(self, node: ast.Call) -> None:
        cell = node.args[0]
        mode = "?"
        if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            mode = str(node.args[1].value)
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = str(kw.value.value)
        self.notes.append(
            NoteCall(
                line=node.lineno,
                col=node.col_offset,
                func=self._func_stack[0].qualname if self._func_stack else "",
                klass=self._class_stack[-1] if self._class_stack else "",
                receiver=self._receiver,
                name=cell,
                mode=mode,
                forwarded=isinstance(cell, ast.Name)
                and cell.id in self._params
                and cell.id not in self._locals,
                local_assigns={k: list(v) for k, v in self._locals.items()},
            )
        )


class _Module:
    __slots__ = ("name", "path", "scope", "functions", "imports", "stores", "notes")

    def __init__(self, name, path, scope, scanner: _ModuleScanner):
        self.name = name
        self.path = path
        self.scope = scope
        self.functions = scanner.functions  # qualname -> FunctionInfo
        self.imports = scanner.imports  # alias -> dotted target
        self.stores: TemplateStores = scanner.stores
        self.notes: list[NoteCall] = scanner.notes


def _suffix_index(modules: dict[str, _Module]) -> dict[str, list[_Module]]:
    """Every module filed under each ``dotted`` its name ends with — in
    ``"." + dotted`` or in ``"." + dotted + ".__init__"`` — so a suffix
    lookup is one dict read, not a scan of the whole file set."""
    index: dict[str, list[_Module]] = {}
    for name, m in modules.items():
        parts = name.split(".")
        keys = [".".join(parts[i:]) for i in range(1, len(parts))]
        if parts[-1] == "__init__":
            keys += [".".join(parts[i:-1]) for i in range(1, len(parts) - 1)]
        for key in dict.fromkeys(keys):
            index.setdefault(key, []).append(m)
    return index


class CallGraph:
    """All functions across a file set, with resolved call edges."""

    def __init__(self):
        self.modules: dict[str, _Module] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: dotted suffix -> the modules it names (see :func:`_suffix_index`)
        self._by_suffix: dict[str, list[_Module]] = {}

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
            graph.modules[module] = _Module(module, path, scope, scanner)
            for info in scanner.functions.values():
                graph.functions[info.key] = info
        graph._by_suffix = _suffix_index(graph.modules)
        graph._resolve_calls()
        return graph

    # -- import / call resolution -------------------------------------------
    def _find_module(self, dotted: str) -> _Module | None:
        """Exact key, the package ``__init__``, or the one module whose
        name ends in the dotted suffix (``None`` when several do)."""
        for candidate in (dotted, f"{dotted}.__init__"):
            if candidate in self.modules:
                return self.modules[candidate]
        hits = self._by_suffix.get(dotted, ())
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
                for call in (*info.calls, *info.handlers):
                    target = self._resolve(mod, call.ref)
                    if target is not None and target.key != info.key:
                        call.target = target.key
