"""The declared sanitizer-cell inventory, machine-readable.

The runtime race sanitizer (:mod:`.races`) watches exactly the cells
the code remembers to ``note_access`` — its guarantee is as strong as
that inventory.  This module makes the inventory a *checked contract*:

* :func:`parse_race_cells` reads the declarations: each module that
  notes a cell family declares it beside the code, in a module-level
  ``RACE_CELLS`` literal — one :class:`CellDecl` per family, with the
  attribute names the cell guards.  The in-tree declarations mirror
  the cell table in docs/INTERNALS.md §1.
* :func:`extract_note_sites` recovers the *actual* inventory: every
  ``note_access(...)`` call the call graph (:mod:`.callgraph`) recorded,
  with the cell name resolved — through f-strings, locals,
  attribute/dict stores, helper methods, and
  :func:`repro.simcore.cell_name` calls — into a :class:`Shape`
  (literal runs + ``<hole>`` placeholders).  The call sites, locals and
  stores are facts of the graph's one walk; this module walks no
  module itself, it only resolves names.
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
from dataclasses import dataclass
from typing import Iterable, Optional

from ..simcore.cells import cell_name
from .callgraph import CallGraph, TemplateStores, module_name_for

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


class _Resolver:
    """Reduce a cell-name expression to its :class:`Shape` templates."""

    _MAX_DEPTH = 6

    def __init__(self, index: TemplateStores):
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

        def rec(values) -> list[Shape]:
            out = []
            for value in values:
                out.extend(self.resolve(value, klass, self_name, local_assigns, depth + 1))
            return _dedup(out)

        def self_attr(node: ast.expr) -> str | None:
            """``attr`` when ``node`` is ``<receiver>.attr``."""
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in (self_name, "self", "cls")
            ):
                return node.attr
            return None

        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return [_normalize([expr.value])]
        if isinstance(expr, ast.JoinedStr):
            return [_normalize([
                str(piece.value) if isinstance(piece, ast.Constant) else HOLE
                for piece in expr.values
            ])]
        if isinstance(expr, ast.Name):
            return rec(local_assigns.get(expr.id, ()))
        if isinstance(expr, ast.Attribute):
            if (attr := self_attr(expr)) is not None:
                return self._from_store(attr, klass, "direct", local_assigns, depth)
            # foo.attr on a non-self object: fall back to any function/
            # property of that name returning a template (duck-typed
            # hop, e.g. a dict-comp over ``u.cell``).
            return self._from_returns(expr.attr, None, local_assigns, depth)
        if isinstance(expr, ast.Subscript):
            container = expr.value
            if (attr := self_attr(container)) is not None:
                return self._from_store(attr, klass, "elements", local_assigns, depth)
            if isinstance(container, ast.Name):
                elements: list[ast.expr] = []
                for value in local_assigns.get(container.id, ()):
                    if isinstance(value, ast.Dict):
                        elements.extend(v for v in value.values if v is not None)
                    elif isinstance(value, ast.DictComp):
                        elements.append(value.value)
                return rec(elements)
            return []
        if isinstance(expr, ast.Call):
            func = expr.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name == "cell_name":
                return self._from_cell_name(expr)
            if (
                name == "get"
                and isinstance(func, ast.Attribute)
                and (attr := self_attr(func.value)) is not None
            ):
                return self._from_store(attr, klass, "elements", local_assigns, depth)
            if name is not None:
                # Helper method/function returning the template.
                return self._from_returns(
                    name, klass if self_attr(func) is not None else None,
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
        entries = table.get((klass, attr))
        if entries is None:
            # Same attribute declared in a different class (duck-typed
            # receiver): accept a cross-class match.
            entries = [e for (_k, a), es in table.items() if a == attr for e in es]
        return self._resolve_all(entries, local_assigns, depth)

    def _from_returns(
        self,
        name: str,
        klass: Optional[str],
        local_assigns: dict[str, list[ast.expr]],
        depth: int,
    ) -> list[Shape]:
        entries = self.index.returns.get((klass, name)) if klass is not None else None
        if not entries:
            entries = [
                e
                for (_k, fname), es in self.index.returns.items()
                if fname == name
                for e in es
            ]
        return self._resolve_all(entries, local_assigns, depth)

    def _resolve_all(
        self,
        entries: list[tuple[str, str, ast.expr]],
        local_assigns: dict[str, list[ast.expr]],
        depth: int,
    ) -> list[Shape]:
        """Shapes of stored ``(class, receiver, expr)`` templates, each
        resolved in the context that stored it."""
        out: list[Shape] = []
        for klass, receiver, value in entries:
            out.extend(self.resolve(value, klass, receiver, local_assigns, depth + 1))
        return _dedup(out)


def _dedup(shapes: list[Shape]) -> list[Shape]:
    seen: set[tuple[str, ...]] = set()
    out: list[Shape] = []
    for s in shapes:
        if s.tokens not in seen:
            seen.add(s.tokens)
            out.append(s)
    return out


def extract_note_sites(graph: CallGraph) -> list[NoteSite]:
    """Every ``note_access`` call the call graph recorded, with its cell
    name resolved against the string-template stores of the whole file
    set."""
    index = TemplateStores()
    for mod in graph.modules.values():
        for kind in ("direct", "elements", "returns"):
            table = getattr(index, kind)
            for key, entries in getattr(mod.stores, kind).items():
                table.setdefault(key, []).extend(entries)
    resolver = _Resolver(index)
    sites: list[NoteSite] = []
    for mod in graph.modules.values():
        for note in mod.notes:
            shapes = () if note.forwarded else resolver.resolve(
                note.name, note.klass, note.receiver, note.local_assigns
            )
            sites.append(
                NoteSite(
                    path=mod.path,
                    line=note.line,
                    col=note.col,
                    module=mod.name,
                    func=note.func,
                    mode=note.mode,
                    shapes=tuple(shapes),
                    raw=ast.unparse(note.name),
                    forwarded=note.forwarded,
                )
            )
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
