"""Every ``HVACSpec`` setting must be read by the code it configures.

A field that is validated and set but never read is a dead knob: it
widens the configuration surface without changing behaviour.  This
scan parses ``src/repro`` (minus ``cluster/specs.py``, where fields are
declared and validated) and requires each field name to appear as an
attribute load somewhere, e.g. ``spec.hvac.rpc_timeout``.
"""

import ast
import dataclasses
import re
from pathlib import Path

from repro.cluster.specs import HVACSpec

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SPECS = SRC / "cluster" / "specs.py"
FIELDS = frozenset(f.name for f in dataclasses.fields(HVACSpec))


def _fields_read() -> set[str]:
    """HVACSpec field names loaded as an attribute outside specs.py."""
    # Only files whose text could hold such a load are parsed.
    mention = re.compile(r"\.\s*(?:%s)\b" % "|".join(sorted(FIELDS)))
    read: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path == SPECS or not mention.search(text):
            continue
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in FIELDS
            ):
                read.add(node.attr)
    return read


def test_every_hvac_field_is_read():
    dead = sorted(FIELDS - _fields_read())
    assert not dead, f"HVACSpec fields no code reads: {dead}"
