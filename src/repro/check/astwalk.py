"""The one AST traversal every ``repro check`` pass runs on.

:class:`NodeVisitor` resolves ``visit_<Type>`` once per (visitor class,
node type), where the stdlib's looks it up for every node, and reads
``node._fields`` directly instead of running :func:`ast.iter_fields`.
:func:`child_nodes` and :func:`walk` return what
:func:`ast.iter_child_nodes` and :func:`ast.walk` yield, in the same
order.  ``tests/test_astwalk.py`` holds all three to the stdlib.
"""

from __future__ import annotations

import ast

__all__ = ["NodeVisitor", "child_nodes", "walk"]

#: per-constant hooks the stdlib's ``visit_Constant`` still calls
_LEGACY = ("visit_Num", "visit_Str", "visit_Bytes", "visit_NameConstant", "visit_Ellipsis")


def child_nodes(node: ast.AST) -> list[ast.AST]:
    """``list(ast.iter_child_nodes(node))``."""
    out: list[ast.AST] = []
    for field in node._fields:
        value = getattr(node, field, None)  # an unset field is skipped
        if isinstance(value, ast.AST):
            out.append(value)
        elif isinstance(value, list):
            out += [item for item in value if isinstance(item, ast.AST)]
    return out


def walk(node: ast.AST) -> list[ast.AST]:
    """``list(ast.walk(node))``: breadth first, the root first."""
    nodes = [node]
    for parent in nodes:  # reaches the children appended as it goes
        nodes.extend(child_nodes(parent))
    return nodes


class NodeVisitor(ast.NodeVisitor):
    """:class:`ast.NodeVisitor` with one dispatch table per class.

    ``visit_*`` handlers are plain methods.  ``ast.Constant`` goes to
    ``generic_visit`` unless the class defines ``visit_Constant``; a
    class defining one of the stdlib's legacy ``visit_Num``-style hooks
    is a :class:`TypeError`, not a hook silently never called.
    """

    _dispatch: dict[type, object] = {}  #: node type -> handler

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        legacy = [name for name in _LEGACY if hasattr(cls, name)]
        if legacy:
            raise TypeError(f"{cls.__name__} defines {', '.join(legacy)}; define visit_Constant")
        cls._dispatch = {}

    @classmethod
    def _resolve(cls, kind: type):
        method = getattr(cls, "visit_" + kind.__name__, None)
        if method is None or method is ast.NodeVisitor.visit_Constant:
            method = cls.generic_visit
        cls._dispatch[kind] = method
        return method

    def visit(self, node: ast.AST):
        kind = node.__class__
        return (self._dispatch.get(kind) or self._resolve(kind))(self, node)

    def generic_visit(self, node: ast.AST) -> None:
        for field in node._fields:
            value = getattr(node, field, None)  # an unset field is skipped
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        self.visit(item)
            elif isinstance(value, ast.AST):
                self.visit(value)
