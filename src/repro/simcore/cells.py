"""Canonical race-sanitizer cell-name formatting.

Every shared-state cell family whose name embeds an entity id —
``tenancy.quota.t<j>``, ``prefetch.queue.s<id>`` — must format that id
the same way in three places: the writer's ``note_access`` call, the
module's ``RACE_CELLS`` declaration beside it, and the cell table in
docs/INTERNALS.md.  A bare f-string at each writer lets the writers
drift from each other and from the declaration (``t{tid}`` vs
``t-{tid}`` vs ``{tid}``), which the static auditor (``repro check
--passes cells``) would report as a dead declared cell *and* an undeclared
noted cell — two findings for one typo.  :func:`cell_name` is the
single formatting authority: the writers call it with a concrete id,
and the auditor's extractor resolves calls to it symbolically, so every
writer of a family yields one template, and a declaration that does not
spell it (``"tenancy.quota.t<j>"``) is reported as drift.
"""

from __future__ import annotations

__all__ = ["cell_name"]


def cell_name(family: str, entity: str, ident) -> str:
    """``"<family>.<entity><ident>"`` — e.g. ``cell_name("tenancy.quota",
    "t", 3)`` → ``"tenancy.quota.t3"``.

    ``family`` is the dotted cell family, ``entity`` the one-letter (or
    short) entity marker, ``ident`` the entity id.
    """
    return f"{family}.{entity}{ident}"
