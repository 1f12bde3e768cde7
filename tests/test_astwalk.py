"""The traversal engine under every ``repro check`` pass gives exactly
what the stdlib gives: the same visit order, the same breadth-first
walk, the same children, on every source file the checker reads and on
node shapes the parser never builds."""

import ast
import os

import pytest

from repro.check import astwalk

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SNIPPETS = {
    "match": (
        "match cmd:\n"
        "    case [1, *rest] if rest:\n"
        "        pass\n"
        "    case {'k': v, **kw}:\n"
        "        pass\n"
        "    case Point(x=0, y=[_, *_]) | None:\n"
        "        pass\n"
        "    case str() as s:\n"
        "        pass\n"
    ),
    "async": (
        "async def f(g, a, c):\n"
        "    async for x in g():\n"
        "        async with a as b, c:\n"
        "            await b\n"
        "    return [y async for y in g() if y]\n"
    ),
    "lambda_defaults": "f = lambda a, /, b=1, *c, d=lambda: 2, **e: (a, b, c, d, e)\n",
    "constants": "x = (1, 2.0, 3j, 'a', b'b', True, None, ..., f'{x!r:>{w}}')\n",
    "dict_unpack": "d = {**a, 'k': 1, **b}\n",
}


def _manual_nodes() -> list[ast.AST]:
    """Nodes built by hand, with optional and list fields left unset."""
    return [
        ast.FunctionDef(name="f", args=ast.arguments(), body=[ast.Pass()]),
        ast.Call(func=ast.Name(id="f")),
        ast.BinOp(left=ast.Constant(1), op=ast.Add()),
        ast.Return(),
        ast.Module(body=[ast.Expr(ast.Call(func=ast.Name(id="g"), args=[ast.Constant(0)]))]),
        ast.Dict(keys=[None, ast.Name(id="a")], values=[ast.Name(id="b"), "not a node"]),
    ]


def _trees() -> dict[str, ast.AST]:
    trees = {}
    for root in ("src", os.path.join("tests", "fixtures")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO_ROOT, root)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        trees[path] = ast.parse(fh.read(), filename=path)
    trees.update({name: ast.parse(src) for name, src in SNIPPETS.items()})
    trees.update({f"manual[{i}]": node for i, node in enumerate(_manual_nodes())})
    return trees


@pytest.fixture(scope="module")
def trees():
    return _trees()


class _Record:
    """Records every node it reaches, by type; ``visit_Name`` and
    ``visit_Call`` are handlers of its own."""

    def __init__(self):
        self.seen: list[str] = []

    def generic_visit(self, node):
        self.seen.append(type(node).__name__)
        super().generic_visit(node)

    def visit_Name(self, node):
        self.seen.append("Name!")

    def visit_Call(self, node):
        self.seen.append("Call!")
        self.generic_visit(node)


class StdRecord(_Record, ast.NodeVisitor):
    pass


class EngineRecord(_Record, astwalk.NodeVisitor):
    pass


def test_every_tree_sees_the_stdlib_visit_order(trees):
    for name, tree in trees.items():
        std, engine = StdRecord(), EngineRecord()
        std.visit(tree)
        engine.visit(tree)
        assert engine.seen == std.seen, name


def test_walk_and_child_nodes_equal_the_stdlib(trees):
    for name, tree in trees.items():
        nodes = astwalk.walk(tree)
        assert nodes == list(ast.walk(tree)), name
        for node in nodes:
            assert astwalk.child_nodes(node) == list(ast.iter_child_nodes(node)), name


def test_manual_nodes_skip_unset_fields():
    func, call = _manual_nodes()[:2]
    assert [type(n).__name__ for n in astwalk.child_nodes(func)] == ["arguments", "Pass"]
    assert astwalk.child_nodes(call) == [call.func]
    seen = EngineRecord()
    seen.visit(func)
    assert seen.seen == ["FunctionDef", "arguments", "Pass"]


def test_a_subclass_dispatches_to_its_own_override():
    tree = ast.parse("x = y")

    class Base(astwalk.NodeVisitor):
        def __init__(self):
            self.hits: list[str] = []

        def visit_Name(self, node):
            self.hits.append("base")

    class Child(Base):
        def visit_Name(self, node):
            self.hits.append("child")

    class Heir(Base):
        pass

    for cls, expected in ((Base, "base"), (Child, "child"), (Heir, "base"), (Base, "base")):
        visitor = cls()
        visitor.visit(tree)
        assert visitor.hits == [expected, expected], cls.__name__


def test_constant_goes_to_visit_constant_only_when_defined():
    tree = ast.parse("f(1, 'a')")

    class Consts(astwalk.NodeVisitor):
        def __init__(self):
            self.values: list[object] = []

        def visit_Constant(self, node):
            self.values.append(node.value)

    visitor = Consts()
    visitor.visit(tree)
    assert visitor.values == [1, "a"]
    seen = EngineRecord()
    seen.visit(tree)
    assert seen.seen == ["Module", "Expr", "Call!", "Call", "Name!", "Constant", "Constant"]


@pytest.mark.parametrize("legacy", ["visit_Num", "visit_Str", "visit_NameConstant"])
def test_a_legacy_constant_hook_is_a_type_error(legacy):
    with pytest.raises(TypeError, match=legacy):
        type("Legacy", (astwalk.NodeVisitor,), {legacy: lambda self, node: None})
