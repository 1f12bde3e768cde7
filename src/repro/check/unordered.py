"""The unordered-value fact behind simlint's set-ordering rules.

Every set-ordering rule polices one hazard: an unordered container's
iteration order leaking into sim behaviour.  :func:`unordered_values`
walks a module once and answers one question about any expression: does
it hold an unordered ``set``, and through which *carrier*?  The carrier
is a message detail naming how the set reached the expression:

* none: a set literal/constructor, or a name (``x``/``obj.x``) bound to
  one earlier in source order — by value or by annotation;
* ``(self.x is bound in reset())``: ``self.x`` bound to a set in
  *another* method of the class;
* ``(element of 'groups')``: an element of a list/dict/tuple that holds
  set elements (a loop variable drawn from it, or a subscript);
* ``(Row.members)`` or ``(unpacked 'members')``: a dataclass/namedtuple
  field carrying a set (``rec.field``, or a name the field was unpacked
  or aliased into).

Precedence runs down the list: a site the name tracker sees carries
no detail.  Every carrier counts in every scope.  The sinks live with
their consumers.  In :mod:`.rules`, an order-fixing iteration reports
SIM004 with the carrier's detail, a float reduction SIM008, and a
scheduling call inside a loop over any carrier SIM010.  In
:mod:`.callgraph`, iteration, returns, ``yield from`` and set arguments
feed the interprocedural SIM011/SIM013.

The same walk records the module's import aliases, which both
consumers resolve call targets against.  The fact is cached per parsed
tree, so a lint run and a call-graph build over one tree share it, and
so is the flat node list of :func:`walk_nodes`, which the module-wide
pre-pass here and the class and list-attribute inventories of
:mod:`.perf` read instead of walking the tree again.
"""

from __future__ import annotations

import ast
from weakref import WeakKeyDictionary

from .astwalk import NodeVisitor, walk

__all__ = [
    "ITERATING_CALLS",
    "ORDER_PRESERVING",
    "SET_ANNOTATIONS",
    "UnorderedValues",
    "is_set_annotation",
    "is_set_expr",
    "qualname",
    "strip_order_preserving",
    "unordered_values",
    "walk_nodes",
]

#: annotation heads that denote an unordered set type
SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}
)

#: builtins that iterate their first argument, fixing its order
ITERATING_CALLS = frozenset({"list", "tuple", "iter", "enumerate", "max", "min"})

#: wrappers that pass their argument's order through to the consumer
ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})

#: builtins that construct a set (also as a ``default_factory``)
_SET_CONSTRUCTORS = ("set", "frozenset")

def is_set_expr(node: ast.AST | None) -> bool:
    """A set display, set comprehension, or ``set()``/``frozenset()`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _SET_CONSTRUCTORS
    )


def is_set_annotation(ann: ast.expr | None) -> bool:
    """``set``, ``Set[int]``, ``typing.Set[int]``, ``'set[int]'``, ..."""
    if isinstance(ann, ast.Name):
        return ann.id in SET_ANNOTATIONS
    if isinstance(ann, ast.Attribute):
        return ann.attr in SET_ANNOTATIONS
    if isinstance(ann, ast.Subscript):
        return is_set_annotation(ann.value)
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        head = ann.value.split("[", 1)[0].strip()
        return head.rsplit(".", 1)[-1] in SET_ANNOTATIONS
    return False


def strip_order_preserving(node: ast.expr) -> ast.expr:
    """``list(iter(x))`` -> ``x``: the expression whose order reaches
    the consumer (``sorted(...)`` is not stripped: it neutralizes)."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ORDER_PRESERVING
        and node.args
    ):
        node = node.args[0]
    return node


def qualname(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Dotted name of a call target with import aliases resolved.

    ``np.random.default_rng`` -> ``numpy.random.default_rng``;
    ``__import__("random").Random`` -> ``random.Random``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(imports.get(node.id, node.id))
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "__import__"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        parts.append(node.args[0].value)
    else:
        return None
    return ".".join(reversed(parts))


def _bound_name(target: ast.expr) -> str | None:
    """``x`` or ``obj.x`` binding targets, keyed by bare name."""
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        return target.attr
    return None


def _decorator_name(dec: ast.expr) -> str | None:
    if isinstance(dec, ast.Call):
        dec = dec.func
    if isinstance(dec, ast.Name):
        return dec.id
    if isinstance(dec, ast.Attribute):
        return dec.attr
    return None


class _ClassScope:
    """Cross-method attribute bookkeeping for one class body."""

    __slots__ = ("binders", "non_set", "sites")

    def __init__(self):
        self.binders: dict[str, set[str]] = {}  #: attr -> methods binding a set
        self.non_set: set[str] = set()  #: attrs also bound to non-set values
        self.sites: list[tuple[ast.Attribute, str, str]] = []  #: (node, attr, method)


class UnorderedValues(NodeVisitor):
    """One module's unordered-value fact; see the module docstring."""

    def __init__(self, tree: ast.AST):
        #: alias -> dotted import target (relative ones keep leading dots)
        self.imports: dict[str, str] = {}
        #: node -> its carrier's message detail ("" for a plain set)
        self._carriers: dict[ast.AST, str] = {}
        self._set_names: set[str] = set()  # bound to a set, in source order
        self._containers: set[str] = set()  # names holding set elements
        self._aliases: dict[str, str] = {}  # live loop var -> container
        self._fields: dict[str, list[str]] = {}  # record class -> fields
        self._set_fields: dict[str, set[str]] = {}  # its set fields
        self._instances: dict[str, str] = {}  # name -> record class
        self._unpacked: set[str] = set()  # names a set field reached
        #: method context: (class scope, method name, self parameter)
        self._method: tuple[_ClassScope, str, str] | None = None
        self._collect(tree)
        self.visit(tree)

    def carrier(self, node: ast.AST | None) -> str | None:
        """The message detail of how ``node`` holds an unordered set
        (``""`` for a plain one), or None if it does not."""
        if is_set_expr(node):
            return ""
        return self._carriers.get(node)

    # -- module-wide collection: containers and records ---------------------
    def _collect(self, tree: ast.AST) -> None:
        """Facts a site may use before the code that establishes them:
        containers ever given a set element, and record classes with the
        fields that ever carry a set."""
        later: list[ast.AST] = []
        for node in walk_nodes(tree):
            if isinstance(node, ast.ClassDef):
                self._collect_record(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                later.append(node)
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and self._holds_set(node.value):
                        self._containers.add(target.id)
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and is_set_expr(node.value)
                    ):
                        self._containers.add(target.value.id)
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    self._collect_namedtuple(node)
            elif isinstance(node, ast.Call):
                later.append(node)
                func, args = node.func, node.args
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and args
                    and (
                        (func.attr == "append" and is_set_expr(args[0]))
                        or (
                            func.attr in ("insert", "setdefault")
                            and len(args) >= 2
                            and is_set_expr(args[1])
                        )
                    )
                ):
                    self._containers.add(func.value.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                later.append(node)
        if not self._fields:
            return
        # Record classes are known now (a construction site may precede
        # the class it instantiates); follow their instances.
        for node in later:
            if isinstance(node, ast.Call):
                self._record_call(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_instance(node)
            else:
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if isinstance(arg.annotation, ast.Name) and arg.annotation.id in self._fields:
                        self._instances[arg.arg] = arg.annotation.id

    @staticmethod
    def _holds_set(value: ast.expr | None) -> bool:
        """A list/tuple/dict display with a set-valued element."""
        if isinstance(value, (ast.List, ast.Tuple)):
            return any(is_set_expr(e) for e in value.elts)
        if isinstance(value, ast.Dict):
            return any(is_set_expr(v) for v in value.values)
        return False

    def _collect_record(self, node: ast.ClassDef) -> None:
        if not (
            any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
            or any(_decorator_name(b) == "NamedTuple" for b in node.bases)
        ):
            return
        fields: list[str] = []
        tainted: set[str] = set()
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            fields.append(stmt.target.id)
            value = stmt.value
            if is_set_annotation(stmt.annotation) or is_set_expr(value) or (
                isinstance(value, ast.Call)
                and _decorator_name(value.func) == "field"
                and any(
                    kw.arg == "default_factory"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id in _SET_CONSTRUCTORS
                    for kw in value.keywords
                )
            ):
                tainted.add(stmt.target.id)
        self._fields[node.name] = fields
        self._set_fields[node.name] = tainted

    def _collect_namedtuple(self, node: ast.Assign) -> None:
        target, value = node.targets[0], node.value
        if not (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and _decorator_name(value.func) == "namedtuple"
            and len(value.args) >= 2
        ):
            return
        spec = value.args[1]
        fields: list[str] = []
        if isinstance(spec, ast.Constant) and isinstance(spec.value, str):
            fields = spec.value.replace(",", " ").split()
        elif isinstance(spec, (ast.List, ast.Tuple)):
            fields = [
                e.value for e in spec.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
        self._fields[target.id] = fields
        self._set_fields[target.id] = set()

    def _record_call(self, value: ast.expr | None) -> str | None:
        """Record class if ``value`` constructs one, folding set-expression
        arguments into its set fields."""
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in self._fields
        ):
            return None
        klass = value.func.id
        fields = self._fields[klass]
        for i, arg in enumerate(value.args):
            if i < len(fields) and is_set_expr(arg):
                self._set_fields[klass].add(fields[i])
        for kw in value.keywords:
            if kw.arg in fields and is_set_expr(kw.value):
                self._set_fields[klass].add(kw.arg)
        return klass

    def _collect_instance(self, node: ast.Assign | ast.AnnAssign) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        klass = self._record_call(value)
        if (
            klass is None
            and isinstance(node, ast.AnnAssign)
            and isinstance(node.annotation, ast.Name)
            and node.annotation.id in self._fields
        ):
            klass = node.annotation.id
        if klass is None and isinstance(value, ast.Name):
            klass = self._instances.get(value.id)
        for target in targets:
            if isinstance(target, ast.Name):
                if klass is not None:
                    self._instances[target.id] = klass
                elif value is not None and self._field_of(value):
                    self._unpacked.add(target.id)  # s = rec.paths
            elif isinstance(target, (ast.Tuple, ast.List)) and klass is not None:
                fields, tainted = self._fields[klass], self._set_fields[klass]
                for i, elt in enumerate(target.elts):
                    if isinstance(elt, ast.Name) and i < len(fields) and fields[i] in tainted:
                        self._unpacked.add(elt.id)

    def _field_of(self, expr: ast.expr) -> str | None:
        """The detail if ``expr`` denotes a set-valued record field."""
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            klass = self._instances.get(expr.value.id)
            if klass is not None and expr.attr in self._set_fields[klass]:
                return f" ({klass}.{expr.attr})"
        if isinstance(expr, ast.Name) and expr.id in self._unpacked:
            return f" (unpacked {expr.id!r})"
        return None

    # -- imports --------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        prefix = "." * node.level + (f"{node.module}." if node.module else "")
        for alias in node.names:
            if alias.name != "*":
                self.imports[alias.asname or alias.name] = prefix + alias.name

    # -- bindings: by name, and by class across methods -------------------------
    def _is_local(self, node: ast.expr | None) -> bool:
        if is_set_expr(node):
            return True
        name = _bound_name(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        return name is not None and name in self._set_names

    def _note_binding(self, target: ast.expr, value: ast.expr | None,
                      annotation: ast.expr | None = None) -> None:
        name = _bound_name(target)
        if name is None:
            return
        if self._is_local(value) or is_set_annotation(annotation):
            self._set_names.add(name)
        elif value is not None:
            self._set_names.discard(name)
        method = self._method
        if (
            method is not None
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == method[2]
        ):
            scope = method[0]
            if is_set_expr(value) or is_set_annotation(annotation):
                scope.binders.setdefault(name, set()).add(method[1])
            elif value is not None:
                scope.non_set.add(name)

    # A binding takes effect before its value is visited: in
    # ``xs = list(xs)`` the ``xs`` being read is already the new, non-set
    # binding.  The pinned verdicts depend on this order.
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_binding(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._note_binding(node.target, node.value, node.annotation)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer = self._method
        scope = _ClassScope()
        self._method = None
        for child in (*node.decorator_list, *node.bases, *node.keywords):
            self.visit(child)
        for stmt in node.body:
            self._method = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = stmt.args.posonlyargs + stmt.args.args
                if args:
                    self._method = (scope, stmt.name, args[0].arg)
            self.visit(stmt)
        self._method = outer
        flaggable = {
            attr: binders for attr, binders in scope.binders.items()
            if attr not in scope.non_set
        }
        for site, attr, method in scope.sites:
            binders = flaggable.get(attr)
            if binders and binders != {method} and self._carriers.get(site) != "":
                self._carriers[site] = (
                    f" (self.{attr} is bound in {', '.join(sorted(binders))}())"
                )

    # -- value sites -------------------------------------------------------------
    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        name = node.id
        if name in self._set_names:
            self._carriers[node] = ""
        elif name in self._aliases:
            self._carriers[node] = f" (element of {self._aliases[name]!r})"
        elif name in self._unpacked:
            self._carriers[node] = f" (unpacked {name!r})"

    def visit_Attribute(self, node: ast.Attribute) -> None:
        owner = node.value
        if isinstance(node.ctx, ast.Load) and isinstance(owner, ast.Name):
            if node.attr in self._set_names:
                self._carriers[node] = ""
            else:
                if self._method is not None and owner.id == self._method[2]:
                    self._method[0].sites.append((node, node.attr, self._method[1]))
                detail = self._field_of(node) if self._instances else None
                if detail is not None:
                    self._carriers[node] = detail
        self.visit(owner)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        owner = node.value
        if (
            isinstance(node.ctx, ast.Load)
            and isinstance(owner, ast.Name)
            and owner.id in self._containers
        ):
            self._carriers[node] = f" (element of {owner.id!r})"
        self.generic_visit(node)

    # -- loops: element aliases live for the loop body --------------------------
    def _element_aliases(self, target: ast.expr, it: ast.expr) -> dict[str, str]:
        """Loop-target names bound to elements of a container holding
        sets: iterated directly, via ``.values()``, or as the value half
        of ``.items()``."""
        pairs = False
        if isinstance(it, ast.Name) and it.id in self._containers:
            container = it.id
        elif (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and isinstance(it.func.value, ast.Name)
            and it.func.value.id in self._containers
            and it.func.attr in ("values", "items")
        ):
            container, pairs = it.func.value.id, it.func.attr == "items"
        else:
            return {}
        if not pairs and isinstance(target, ast.Name):
            return {target.id: container}
        if (
            pairs
            and isinstance(target, (ast.Tuple, ast.List))
            and len(target.elts) == 2
            and isinstance(target.elts[1], ast.Name)
        ):
            return {target.elts[1].id: container}
        return {}

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        saved = self._aliases
        added = self._element_aliases(node.target, node.iter) if self._containers else {}
        if added:
            self._aliases = {**saved, **added}
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        self._aliases = saved

    def _visit_comp(self, node) -> None:
        saved = self._aliases
        self._aliases = dict(saved)
        for gen in node.generators:
            self.visit(gen.iter)
            if self._containers:
                self._aliases.update(self._element_aliases(gen.target, gen.iter))
            for cond in gen.ifs:
                self.visit(cond)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        self._aliases = saved

    visit_ListComp = visit_SetComp = visit_GeneratorExp = visit_DictComp = _visit_comp


_CACHE: WeakKeyDictionary[ast.AST, UnorderedValues] = WeakKeyDictionary()

#: tree -> its nodes below the root.  The root stays out: an entry whose
#: value held its own key would keep every tree alive for good.
_NODES: WeakKeyDictionary[ast.AST, list[ast.AST]] = WeakKeyDictionary()


def walk_nodes(tree: ast.AST) -> list[ast.AST]:
    """Every node of ``tree``, root first and breadth first
    (:func:`.astwalk.walk`), walked once per tree."""
    below = _NODES.get(tree)
    if below is None:
        below = _NODES[tree] = walk(tree)[1:]
    return [tree, *below]


def unordered_values(tree: ast.AST) -> UnorderedValues:
    """The fact for one parsed module, computed once per tree."""
    facts = _CACHE.get(tree)
    if facts is None:
        facts = _CACHE[tree] = UnorderedValues(tree)
    return facts
