"""The declared sanitizer-cell inventory, machine-readable.

The runtime race sanitizer (:mod:`.races`) watches exactly the cells
the code remembers to ``note_access`` — its guarantee is as strong as
that inventory.  This module makes the inventory a *checked contract*:

* :func:`parse_race_cells` reads the declarations: each module that
  notes a cell family declares it beside the code, in a module-level
  ``RACE_CELLS`` literal — one :class:`CellDecl` per family, with the
  attribute names the cell guards.  The in-tree declarations mirror
  the cell table in docs/INTERNALS.md §1.
* :func:`extract_note_sites` recovers the *actual* inventory from the
  AST: every ``note_access(...)`` call in a file set, with the cell
  name resolved — through f-strings, locals, attribute/dict stores,
  helper methods, and :func:`repro.simcore.cell_name` calls — into a
  :class:`Shape` (literal runs + ``<hole>`` placeholders).
* :func:`declaration_drift` reports a noted cell family no declaration
  covers; the other direction, a declaration no write site ever notes,
  is RACE202 in the auditor (:mod:`.cells`), which runs both.

Name resolution is deliberately conservative: a cell-name expression
the resolver cannot reduce to a string template is reported as
*unresolved* rather than silently matched, so the declarations can
never look complete by accident.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..simcore.cells import cell_name
from .callgraph import module_name_for

__all__ = [
    "CellDecl",
    "NoteSite",
    "Shape",
    "declaration_drift",
    "extract_note_sites",
    "parse_race_cells",
    "shape_of_pattern",
    "shapes_intersect",
]

#: marker for one entity-id hole in a cell-name template
HOLE = "\x00"


@dataclass(frozen=True)
class Shape:
    """A normalized cell-name template: literal runs split by holes.

    ``tokens`` alternates literal strings with :data:`HOLE` markers;
    the hole's *content* (``<j>`` vs ``{tid}``) is erased, so a
    declared pattern and a noted f-string compare equal exactly when
    their literal skeletons agree.
    """

    tokens: tuple[str, ...]

    def render(self) -> str:
        return "".join("<…>" if t == HOLE else t for t in self.tokens)

    @property
    def has_adjacent_holes(self) -> bool:
        """Two holes with no literal between them: the name cannot be
        parsed back into its entity ids, so distinct id pairs collide
        (``t=1,n=12`` vs ``t=11,n=2``)."""
        return any(
            a == HOLE and b == HOLE
            for a, b in zip(self.tokens, self.tokens[1:])
        )


def _normalize(parts: list[str]) -> Shape:
    """Merge adjacent literals, drop empties, return a Shape."""
    tokens: list[str] = []
    for part in parts:
        if part == "":
            continue
        if part != HOLE and tokens and tokens[-1] != HOLE:
            tokens[-1] += part
        else:
            tokens.append(part)
    return Shape(tuple(tokens))


def shape_of_pattern(pattern: str) -> Shape:
    """Shape of a registry pattern: ``<...>`` spans become holes."""
    parts: list[str] = []
    rest = pattern
    while True:
        lo = rest.find("<")
        hi = rest.find(">", lo + 1)
        if lo < 0 or hi < 0:
            parts.append(rest)
            break
        parts.append(rest[:lo])
        parts.append(HOLE)
        rest = rest[hi + 1:]
    return _normalize(parts)


def shapes_intersect(a: Shape, b: Shape) -> bool:
    """Can two distinct templates produce the same concrete name?

    Holes stand for arbitrary *non-empty* strings; the check is the
    standard product construction over the two wildcard patterns.
    Two families that intersect can collide across entities — the
    RACE204 condition.
    """
    def atoms(shape: Shape) -> list[str]:
        out: list[str] = []
        for tok in shape.tokens:
            if tok == HOLE:
                out.append("\x01")  # exactly one arbitrary char
                out.append("\x02")  # zero or more arbitrary chars
            else:
                out.extend(tok)
        return out

    aa, bb = atoms(a), atoms(b)
    seen: set[tuple[int, int]] = set()
    stack = [(0, 0)]
    while stack:
        i, j = stack.pop()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        if i == len(aa) and j == len(bb):
            return True
        # Stars may match the empty string.
        if i < len(aa) and aa[i] == "\x02":
            stack.append((i + 1, j))
        if j < len(bb) and bb[j] == "\x02":
            stack.append((i, j + 1))
        if i < len(aa) and j < len(bb):
            x, y = aa[i], bb[j]
            wild_x = x in ("\x01", "\x02")
            wild_y = y in ("\x01", "\x02")
            if wild_x or wild_y or x == y:
                # Jointly consume one character; a star stays put.
                for ni in ((i,) if x == "\x02" else (i + 1,)):
                    for nj in ((j,) if y == "\x02" else (j + 1,)):
                        stack.append((ni, nj))
    return False


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellDecl:
    """One declared cell family: an entry of a module's ``RACE_CELLS``."""

    pattern: str  #: name template, ``<x>`` spans are entity-id holes
    module: str  #: dotted name of the declaring (and noting) module
    attrs: tuple[str, ...]  #: instance attributes the cell guards
    why: str  #: one-line rationale (mirrors the INTERNALS table)
    path: str  #: declaration site
    line: int

    @property
    def shape(self) -> Shape:
        return shape_of_pattern(self.pattern)


def parse_race_cells(
    tree: ast.Module, path: str
) -> tuple[list[CellDecl], list[str]]:
    """Module-level ``RACE_CELLS`` declarations in one file.

    A module declares the cells it notes beside the code that notes
    them, one ``(pattern, attrs, why)`` entry per cell family::

        RACE_CELLS = (
            ("board.slot.k<k>", ("slots",), "why this is one cell"),
        )

    Returns the declarations and one drift error per ``RACE_CELLS``
    that is not a literal or entry that is not of that form, so a
    malformed declaration cannot pass silently.
    """
    module = module_name_for(path)
    decls: list[CellDecl] = []
    errors: list[str] = []
    for node in tree.body:
        if not isinstance(node, ast.Assign) or not any(
            isinstance(t, ast.Name) and t.id == "RACE_CELLS"
            for t in node.targets
        ):
            continue
        try:
            value = ast.literal_eval(node.value)
        except (ValueError, TypeError):
            value = None
        if not isinstance(value, (tuple, list)):
            errors.append(
                f"{path}:{node.lineno}: RACE_CELLS is not a literal "
                "tuple — write each cell as a constant "
                "(pattern, attrs, why) entry"
            )
            continue
        for entry in value:
            if not (
                isinstance(entry, (tuple, list))
                and len(entry) == 3
                and isinstance(entry[0], str)
                and isinstance(entry[1], (tuple, list))
                and all(isinstance(a, str) for a in entry[1])
                and isinstance(entry[2], str)
            ):
                errors.append(
                    f"{path}:{node.lineno}: malformed RACE_CELLS entry "
                    f"{entry!r} — expected (pattern, (attr, ...), why)"
                )
                continue
            pattern, attrs, why = entry
            decls.append(
                CellDecl(pattern, module, tuple(attrs), why, path, node.lineno)
            )
    return decls, errors


# ---------------------------------------------------------------------------
# note-site extraction
# ---------------------------------------------------------------------------

@dataclass
class NoteSite:
    """One ``note_access(...)`` call, with its resolved name family."""

    path: str
    line: int
    col: int
    module: str
    func: str  #: enclosing qualname ("" at module level)
    mode: str  #: "r" | "w" | "?" when not a literal
    shapes: tuple[Shape, ...]  #: resolved templates (empty = unresolved)
    raw: str  #: the name expression as written
    forwarded: bool = False  #: the name is a bare parameter pass-through
    #: (the engine's ``note_access`` shim) — not an origination site

    @property
    def resolved(self) -> bool:
        return bool(self.shapes)


@dataclass
class _TemplateIndex:
    """File-set-wide stores feeding cell-name resolution."""

    #: (class, attr) -> exprs directly assigned (self.attr = expr)
    direct: dict[tuple[str, str], list[ast.expr]] = field(default_factory=dict)
    #: (class, attr) -> element exprs (subscript stores, dict values,
    #: dict-comp values, setdefault defaults)
    elements: dict[tuple[str, str], list[ast.expr]] = field(default_factory=dict)
    #: (class, func) -> returned string-template exprs
    returns: dict[tuple[str, str], list[ast.expr]] = field(default_factory=dict)
    #: per-expr context: id(expr) -> (class, self-name) where collected
    ctx: dict[int, tuple[str, str]] = field(default_factory=dict)


class _IndexBuilder(ast.NodeVisitor):
    def __init__(self, index: _TemplateIndex):
        self.index = index
        self._class_stack: list[str] = []
        self._self = "self"
        self._func: Optional[str] = None  #: innermost enclosing def

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    @property
    def _klass(self) -> str:
        return self._class_stack[-1] if self._class_stack else ""

    def _visit_func(self, node) -> None:
        # A nested def keeps its returns: they are filed under its own
        # name, never under the enclosing function's.
        args = [*node.args.posonlyargs, *node.args.args]
        saved = self._self, self._func
        self._self = args[0].arg if args else "self"
        self._func = node.name
        self.generic_visit(node)
        self._self, self._func = saved

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_func

    def visit_Return(self, node: ast.Return) -> None:
        if self._func is not None and isinstance(
            node.value, (ast.JoinedStr, ast.Constant, ast.Call)
        ):
            self.index.returns.setdefault(
                (self._klass, self._func), []
            ).append(node.value)
            self._ctx(node.value)
        self.generic_visit(node)

    def _ctx(self, expr: ast.expr) -> None:
        # simlint: waive SIM009 -- lookup-only map (AST node identity); never iterated
        self.index.ctx[id(expr)] = (self._klass, self._self)

    def _is_self(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in (self._self, "self", "cls")

    def _store(self, target: ast.expr, value: ast.expr | None) -> None:
        if value is None:
            return
        if isinstance(target, ast.Attribute) and self._is_self(target.value):
            key = (self._klass, target.attr)
            if isinstance(value, ast.Dict):
                for v in value.values:
                    if v is not None:
                        self.index.elements.setdefault(key, []).append(v)
                        self._ctx(v)
            elif isinstance(value, ast.DictComp):
                self.index.elements.setdefault(key, []).append(value.value)
                self._ctx(value.value)
            else:
                self.index.direct.setdefault(key, []).append(value)
                self._ctx(value)
        elif (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and self._is_self(target.value.value)
        ):
            key = (self._klass, target.value.attr)
            self.index.elements.setdefault(key, []).append(value)
            self._ctx(value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._store(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._store(node.target, node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "setdefault"
            and isinstance(func.value, ast.Attribute)
            and self._is_self(func.value.value)
            and len(node.args) >= 2
        ):
            key = (self._klass, func.value.attr)
            self.index.elements.setdefault(key, []).append(node.args[1])
            self._ctx(node.args[1])
        self.generic_visit(node)


class _Resolver:
    """Reduce a cell-name expression to its :class:`Shape` templates."""

    _MAX_DEPTH = 6

    def __init__(self, index: _TemplateIndex):
        self.index = index

    def resolve(
        self,
        expr: ast.expr,
        klass: str,
        self_name: str,
        local_assigns: dict[str, list[ast.expr]],
        depth: int = 0,
    ) -> list[Shape]:
        if depth > self._MAX_DEPTH:
            return []
        rec = lambda e, k=klass, s=self_name: self.resolve(  # noqa: E731
            e, k, s, local_assigns, depth + 1
        )
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return [_normalize([expr.value])]
        if isinstance(expr, ast.JoinedStr):
            parts: list[str] = []
            for piece in expr.values:
                if isinstance(piece, ast.Constant):
                    parts.append(str(piece.value))
                else:
                    parts.append(HOLE)
            return [_normalize(parts)]
        if isinstance(expr, ast.Name):
            out: list[Shape] = []
            for value in local_assigns.get(expr.id, ()):
                out.extend(rec(value))
            return _dedup(out)
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id in (
                self_name, "self", "cls",
            ):
                return self._from_store(
                    expr.attr, klass, "direct", local_assigns, depth
                )
            # foo.attr on a non-self object: fall back to any function/
            # property of that name returning a template (duck-typed
            # hop, e.g. a dict-comp over ``u.cell``).
            return self._from_returns(expr.attr, None, local_assigns, depth)
        if isinstance(expr, ast.Subscript):
            container = expr.value
            if (
                isinstance(container, ast.Attribute)
                and isinstance(container.value, ast.Name)
                and container.value.id in (self_name, "self", "cls")
            ):
                return self._from_store(
                    container.attr, klass, "elements", local_assigns, depth
                )
            if isinstance(container, ast.Name):
                out = []
                for value in local_assigns.get(container.id, ()):
                    if isinstance(value, ast.Dict):
                        for v in value.values:
                            if v is not None:
                                out.extend(rec(v))
                    elif isinstance(value, ast.DictComp):
                        out.extend(rec(value.value))
                return _dedup(out)
            return []
        if isinstance(expr, ast.Call):
            func = expr.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name == "cell_name":
                return self._from_cell_name(expr)
            if (
                name == "get"
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in (self_name, "self", "cls")
            ):
                return self._from_store(
                    func.value.attr, klass, "elements", local_assigns, depth
                )
            if name is not None:
                # Helper method/function returning the template.
                receiver_is_self = isinstance(func, ast.Attribute) and (
                    isinstance(func.value, ast.Name)
                    and func.value.id in (self_name, "self", "cls")
                )
                return self._from_returns(
                    name, klass if receiver_is_self else None,
                    local_assigns, depth,
                )
        return []

    def _from_cell_name(self, call: ast.Call) -> list[Shape]:
        if len(call.args) < 3:
            return []
        family, entity, ident = call.args[:3]
        if not (
            isinstance(family, ast.Constant) and isinstance(family.value, str)
            and isinstance(entity, ast.Constant) and isinstance(entity.value, str)
        ):
            return []
        tail: list[str]
        if isinstance(ident, ast.Constant):
            tail = [str(ident.value)]
        else:
            tail = [HOLE]
        # Mirror cell_name()'s join exactly — the helper is the
        # formatting authority (see repro/simcore/cells.py).
        head = cell_name(family.value, entity.value, "")
        return [_normalize([head, *tail])]

    def _from_store(
        self,
        attr: str,
        klass: str,
        kind: str,
        local_assigns: dict[str, list[ast.expr]],
        depth: int,
    ) -> list[Shape]:
        table = getattr(self.index, kind)
        exprs = table.get((klass, attr))
        if exprs is None:
            # Same attribute declared in a different class (duck-typed
            # receiver): accept a unique cross-class match.
            hits = [v for (k, a), vs in table.items() if a == attr for v in vs]
            exprs = hits or None
        out: list[Shape] = []
        for value in exprs or ():
            k, s = self.index.ctx.get(id(value), (klass, "self"))
            out.extend(self.resolve(value, k, s, local_assigns, depth + 1))
        return _dedup(out)

    def _from_returns(
        self,
        name: str,
        klass: Optional[str],
        local_assigns: dict[str, list[ast.expr]],
        depth: int,
    ) -> list[Shape]:
        exprs: list[ast.expr] = []
        if klass is not None:
            exprs = list(self.index.returns.get((klass, name), ()))
        if not exprs:
            exprs = [
                v
                for (_k, fname), vs in self.index.returns.items()
                if fname == name
                for v in vs
            ]
        out: list[Shape] = []
        for value in exprs:
            k, s = self.index.ctx.get(id(value), ("", "self"))
            out.extend(self.resolve(value, k, s, local_assigns, depth + 1))
        return _dedup(out)


def _dedup(shapes: list[Shape]) -> list[Shape]:
    seen: set[tuple[str, ...]] = set()
    out: list[Shape] = []
    for s in shapes:
        if s.tokens not in seen:
            seen.add(s.tokens)
            out.append(s)
    return out


class _NoteScanner(ast.NodeVisitor):
    """Find ``note_access`` calls and resolve their name argument."""

    def __init__(self, path: str, module: str, index: _TemplateIndex):
        self.path = path
        self.module = module
        self.index = index
        self.resolver = _Resolver(index)
        self.sites: list[NoteSite] = []
        self._class_stack: list[str] = []
        self._func_stack: list[str] = []
        self._self = "self"
        #: per-enclosing-function local assignments, name -> exprs
        self._locals: list[dict[str, list[ast.expr]]] = []
        #: the enclosing top-level function's parameter names
        self._params: set[str] = set()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        top_level = not self._func_stack
        self._func_stack.append(node.name)
        if top_level:
            args = [*node.args.posonlyargs, *node.args.args]
            self._saved_self = self._self
            self._self = args[0].arg if (args and self._class_stack) else "self"
            self._locals.append({})
            self._saved_params = self._params
            self._params = {
                a.arg
                for a in (
                    *node.args.posonlyargs,
                    *node.args.args,
                    *node.args.kwonlyargs,
                )
            }
        self.generic_visit(node)
        self._func_stack.pop()
        if top_level:
            self._locals.pop()
            self._self = self._saved_self
            self._params = self._saved_params

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_func

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._locals:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._locals[-1].setdefault(target.id, []).append(node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name == "note_access" and node.args:
            mode = "?"
            if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                mode = str(node.args[1].value)
            for kw in node.keywords:
                if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                    mode = str(kw.value.value)
            klass = self._class_stack[-1] if self._class_stack else ""
            cell_arg = node.args[0]
            forwarded = (
                isinstance(cell_arg, ast.Name)
                and cell_arg.id in self._params
                and cell_arg.id not in (
                    self._locals[-1] if self._locals else {}
                )
            )
            shapes = () if forwarded else self.resolver.resolve(
                cell_arg,
                klass,
                self._self,
                self._locals[-1] if self._locals else {},
            )
            qual = ".".join(
                [*self._class_stack, *self._func_stack[:1]]
            ) if self._func_stack else ""
            self.sites.append(
                NoteSite(
                    path=self.path,
                    line=node.lineno,
                    col=node.col_offset,
                    module=self.module,
                    func=qual,
                    mode=mode,
                    shapes=tuple(shapes),
                    raw=ast.unparse(cell_arg),
                    forwarded=forwarded,
                )
            )
        self.generic_visit(node)


def extract_note_sites(
    parsed: Iterable[tuple[str, ast.Module]],
) -> list[NoteSite]:
    """Every ``note_access`` call across ``(path, tree)`` pairs, with
    cell names resolved against a file-set-wide template index."""
    parsed = list(parsed)
    index = _TemplateIndex()
    for path, tree in parsed:
        _IndexBuilder(index).visit(tree)
    sites: list[NoteSite] = []
    for path, tree in parsed:
        scanner = _NoteScanner(path, module_name_for(path), index)
        scanner.visit(tree)
        sites.extend(scanner.sites)
    return sites


def declaration_drift(
    sites: Iterable[NoteSite], decls: Iterable[CellDecl]
) -> list[str]:
    """Noted cell families that no declaration covers.

    Returns human-readable error lines; empty means every note site
    resolves to a declared template.  Covers the noted→declared
    direction (an undeclared family, or an unresolvable name
    expression); the declared→noted direction is the auditor's RACE202.
    """
    declared = {d.shape.tokens for d in decls}
    errors: list[str] = []
    for site in sites:
        if site.forwarded:
            continue
        if not site.resolved:
            errors.append(
                f"{site.path}:{site.line}: note_access name {site.raw!r} "
                "could not be resolved to a template — register the "
                "store/helper shape or simplify the expression"
            )
            continue
        for shape in site.shapes:
            if shape.tokens not in declared:
                errors.append(
                    f"{site.path}:{site.line}: note_access names cell "
                    f"family '{shape.render()}' which no RACE_CELLS "
                    "entry declares"
                )
    return errors
