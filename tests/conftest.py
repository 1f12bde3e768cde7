"""Shared fixtures: the shipped source tree, read and parsed once."""

import os

import pytest

from repro.check import Program

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)


@pytest.fixture(scope="session")
def src_program():
    """``src/repro`` as one :class:`~repro.check.Program`: the full-tree
    lint, taint, perf and cells gates share its parse and call graph."""
    return Program.read([SRC_ROOT])
