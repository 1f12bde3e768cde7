"""Every spec setting must be read by the code it configures.

A field that is validated and set but never read is a dead knob: it
widens the configuration surface without changing behaviour.  This
scan parses the code (minus ``cluster/specs.py``, where fields are
declared and validated) and requires each field name to appear as an
attribute load somewhere, e.g. ``spec.hvac.rpc_timeout``.
"""

import ast
import dataclasses
import re
from collections.abc import Iterable
from pathlib import Path

from repro.cluster.specs import (
    ClusterSpec,
    HVACSpec,
    NetworkSpec,
    NodeSpec,
    NVMeSpec,
    PFSSpec,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SPECS = SRC / "cluster" / "specs.py"
FIELDS = frozenset(f.name for f in dataclasses.fields(HVACSpec))
#: the hardware specs, read by the models and by benches and examples
HARDWARE = (NVMeSpec, NetworkSpec, PFSSpec, NodeSpec, ClusterSpec)


def _loads(fields: frozenset[str], sources: Iterable[str]) -> set[str]:
    """Names in ``fields`` loaded as an attribute somewhere in ``sources``."""
    # Only sources whose text could hold such a load are parsed.
    mention = re.compile(r"\.\s*(?:%s)\b" % "|".join(sorted(fields)))
    read: set[str] = set()
    for text in sources:
        if not mention.search(text):
            continue
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in fields
            ):
                read.add(node.attr)
    return read


def _sources(*trees: Path) -> list[str]:
    """Every ``.py`` file under ``trees`` except specs.py."""
    return [
        path.read_text(encoding="utf-8")
        for tree in trees
        for path in sorted(tree.rglob("*.py"))
        if path != SPECS
    ]


def _unread(classes: Iterable[type], sources: list[str]) -> list[str]:
    """``Class.field`` of every field of ``classes`` no source reads."""
    fields = {f.name: cls for cls in classes for f in dataclasses.fields(cls)}
    read = _loads(frozenset(fields), sources)
    return sorted(
        f"{cls.__name__}.{f.name}"
        for cls in classes
        for f in dataclasses.fields(cls)
        if f.name not in read
    )


def _fields_read() -> set[str]:
    """HVACSpec field names loaded as an attribute outside specs.py."""
    return _loads(FIELDS, _sources(SRC))


def test_every_hvac_field_is_read():
    dead = sorted(FIELDS - _fields_read())
    assert not dead, f"HVACSpec fields no code reads: {dead}"


def test_every_hardware_field_is_read():
    sources = _sources(SRC, ROOT / "benchmarks", ROOT / "examples")
    dead = _unread(HARDWARE, sources)
    assert not dead, f"spec fields no code reads: {dead}"


def test_an_unread_field_fails():
    """Negative control: a field only its own declaration names is dead."""

    @dataclasses.dataclass(frozen=True)
    class Toy:
        read: int = 1
        unread: int = 2

    source = "def f(toy):\n    toy.unread = 3\n    return toy.read\n"
    assert _unread([Toy], [source]) == ["Toy.unread"]
