"""``repro check --passes cells`` — the whole-program shared-state auditor.

The runtime race sanitizer (:mod:`.races`) only watches the cells the
code remembers to ``note_access``; an attribute nobody celled is
invisible to it.  This pass closes that soundness gap statically, by
diffing two whole-program inventories:

1. **Concurrently-reachable writes.**  Every process-spawn site
   (``env.process(gen)``, including staging workers, gossip/repair
   agents, fault injectors) and every RPC-handler registration
   (``endpoint.register(op, self._handle)``) is a *root*.  Walking the
   module-level call graph (:mod:`.callgraph`) from every root yields,
   per function, how many concurrent process instances can be executing
   it: a root spawned in a loop (or a re-entrant RPC handler) counts as
   two.  Any ``self``-attribute write in a function reachable from two
   or more concurrent instances is shared-state by construction.  The
   writes and roots are facts the call graph records per function, in
   the one walk that also finds its calls.
2. **The declared cell inventory.**  :mod:`.cell_registry` resolves
   the cell-name *shape* of every ``note_access`` site the call graph
   recorded, and reads the module-level ``RACE_CELLS`` literals that
   declare each cell family beside the code that notes it.

The diff emits RACE2xx findings, and *drift* (:attr:`CellAudit.freshness`):
a noted family no ``RACE_CELLS`` entry declares, a name the extractor
cannot resolve, or a malformed ``RACE_CELLS``.  Both fail the audit:

========  ============================================================
RACE201   multi-root-reachable attribute write in a function with no
          ``note_access`` in scope and no declared cell covering the
          attribute — the sanitizer cannot see this mutation
RACE202   a declared cell that no site ever write-notes — a dead or
          stale declaration giving false confidence of coverage
RACE203   a write to an attribute a declared cell *does* guard, in a
          function outside any ``note_access`` scope — the cell exists
          but this mutation bypasses it
RACE204   a cell-name template that can collide across entities: two
          distinct families producing the same concrete name, or
          adjacent f-string holes with no separating literal
========  ============================================================

Coverage granularity is the *function*: a function that notes any cell
is assumed to note the cells its own writes need (the runtime sanitizer
then checks the actual interleavings).  Kernel modules (``simcore.*``)
are exempt — the event loop's own bookkeeping is serialized by
construction; cells exist for *model* state.

False positives are silenced inline, loudly and with a reason::

    self.invalidated.add(sid)  # race: waive RACE201 -- monotone insert

Waivers that stop suppressing anything are reported as *stale* and fail
the check (same machinery as simlint's and perf's).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simcore import CollectorPause
from .callgraph import CallGraph
from .cell_registry import (
    CellDecl,
    declaration_drift,
    extract_note_sites,
    parse_race_cells,
    shapes_intersect,
)
from .program import Program, StaleWaiver
from .rules import Violation

__all__ = [
    "RACE_RULES",
    "CellAudit",
    "audit_files",
    "audit_source",
    "audit_tree",
]

#: rule code -> one-line rationale (mirrored in docs/INTERNALS.md)
RACE_RULES: dict[str, str] = {
    "RACE201": "attribute write reachable from >=2 concurrent process "
    "roots with no note_access in scope and no declared cell — the race "
    "sanitizer cannot see this mutation; note a cell or waive with a "
    "reason",
    "RACE202": "declared sanitizer cell that no site ever write-notes — "
    "a dead or stale declaration giving false confidence of coverage; "
    "delete it or note the writes",
    "RACE203": "write to an attribute a declared cell guards, outside any "
    "note_access scope — the cell exists but this mutation bypasses it",
    "RACE204": "cell-name template can collide across entities (two "
    "families intersect, or adjacent f-string holes have no separating "
    "literal) — distinct entities would share one cell and false-positive "
    "or mask each other",
}

#: construction functions whose own writes are setup, not shared
#: mutation — they run before any concurrent root exists (a def nested
#: in one is not exempt: it may run later, as a spawned process)
_SETUP_EXEMPT = {"__init__", "__post_init__"}

#: module parts exempt from write collection: the kernel's own
#: bookkeeping is serialized by the event loop itself
_KERNEL_PARTS = {"simcore"}


def _is_kernel(module: str) -> bool:
    return any(part in _KERNEL_PARTS for part in module.split("."))


@dataclass
class CellAudit:
    """The result of a ``cells`` pass over one file set."""

    violations: list[Violation]
    stale_waivers: list[StaleWaiver]
    freshness: list[str]  #: drift between note sites and declarations
    n_files: int
    n_roots: int  #: distinct concurrent root functions found
    n_writes: int  #: attribute write sites collected

    @property
    def clean(self) -> bool:
        return not (self.violations or self.stale_waivers or self.freshness)


def _closure(graph: CallGraph, root: str) -> list[str]:
    seen = {root}
    frontier = [root]
    while frontier:
        info = graph.functions.get(frontier.pop())
        if info is None:
            continue
        for call in info.calls:
            if call.target is not None and call.target not in seen:
                seen.add(call.target)
                frontier.append(call.target)
    return sorted(seen)


def audit_files(program: Program) -> CellAudit:
    """Run the shared-state audit over a :class:`.program.Program`."""
    graph = program.graph

    decls: list[CellDecl] = []
    freshness: list[str] = []
    for f in program.files:
        found, errors = parse_race_cells(f.tree, f.path)
        decls.extend(found)
        freshness.extend(errors)

    note_sites = extract_note_sites(graph)
    freshness.extend(declaration_drift(note_sites, decls))
    noted_funcs = {f"{s.module}::{s.func}" for s in note_sites}

    audited = [
        info for info in graph.functions.values()
        if info.scope == "sim" and not _is_kernel(info.module)
    ]

    # -- concurrency roots and their closures -------------------------------
    root_weight: dict[str, int] = {}
    for info in audited:
        for root in info.roots:
            # An unresolved spawn (a local name, a nested def) runs a
            # body attributed to the enclosing function: that is the root.
            key = (root.site and root.site.target) or info.key
            root_weight[key] = root_weight.get(key, 0) + (
                2 if root.replicated else 1
            )

    func_weight: dict[str, int] = {}
    func_roots: dict[str, set[str]] = {}
    for rkey, weight in root_weight.items():
        for fkey in _closure(graph, rkey):
            func_weight[fkey] = func_weight.get(fkey, 0) + weight
            func_roots.setdefault(fkey, set()).add(rkey)

    # -- RACE201 / RACE203: un-noted writes ---------------------------------
    writes = [
        (info, w)
        for info in audited
        for w in info.writes
        if w.nested or info.qualname.rsplit(".", 1)[-1] not in _SETUP_EXEMPT
    ]
    raw: list[Violation] = []
    for info, w in writes:
        key = info.key
        if key in noted_funcs:
            continue  # the function notes a cell; runtime checks the rest
        decl = next(
            (d for d in decls if w.attr in d.attrs and info.module == d.module),
            None,
        )
        if decl is not None:
            raw.append(
                Violation(
                    "RACE203", info.path, w.line, w.col,
                    f"{w.verb} of self.{w.attr} in {info.qualname}() bypasses "
                    f"declared cell '{decl.pattern}' — no note_access in "
                    "scope, so the race sanitizer cannot see this mutation",
                )
            )
        elif func_weight.get(key, 0) >= 2:
            roots = sorted(
                graph.functions[r].qualname for r in func_roots.get(key, ())
            )
            shown = ", ".join(roots[:3]) + (", ..." if len(roots) > 3 else "")
            raw.append(
                Violation(
                    "RACE201", info.path, w.line, w.col,
                    f"{w.verb} of self.{w.attr} in {info.qualname}() is reachable "
                    f"from {func_weight[key]} concurrent process instances "
                    f"(roots: {shown}) with no declared cell and no "
                    "note_access in scope",
                )
            )

    # -- RACE202: dead declarations -----------------------------------------
    write_shapes = {
        shape.tokens
        for site in note_sites
        if not site.forwarded and site.mode in ("w", "?")
        for shape in site.shapes
    }
    for decl in decls:
        if decl.shape.tokens in write_shapes:
            continue
        raw.append(
            Violation(
                "RACE202", decl.path, decl.line, 0,
                f"declared cell '{decl.pattern}' (guarding "
                f"{', '.join(decl.attrs) or 'no attrs'}) is never "
                "write-noted anywhere in the file set — dead or stale "
                "declaration",
            )
        )

    # -- RACE204: colliding name templates ----------------------------------
    first_site: dict[tuple[str, ...], object] = {}
    for site in note_sites:
        if site.forwarded:
            continue
        for shape in site.shapes:
            first_site.setdefault(shape.tokens, (site, shape))
    families = list(first_site.values())
    for site, shape in families:
        if shape.has_adjacent_holes:
            raw.append(
                Violation(
                    "RACE204", site.path, site.line, site.col,
                    f"cell family '{shape.render()}' interpolates two "
                    "entity ids with no separating literal — distinct id "
                    "pairs can produce the same cell name",
                )
            )
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            site_a, shape_a = families[i]
            site_b, shape_b = families[j]
            if shapes_intersect(shape_a, shape_b):
                raw.append(
                    Violation(
                        "RACE204", site_b.path, site_b.line, site_b.col,
                        f"cell family '{shape_b.render()}' can collide "
                        f"with '{shape_a.render()}' "
                        f"(noted at {site_a.path}:{site_a.line}) — two "
                        "entities would share one cell",
                    )
                )

    violations, stale = program.waive(raw, "race")
    return CellAudit(
        violations=violations,
        stale_waivers=stale,
        freshness=freshness,
        n_files=len(program.files),
        n_roots=len(root_weight),
        n_writes=len(writes),
    )


def audit_tree(paths: list[str]) -> CellAudit:
    """Audit every ``.py`` file under the given files/directories, the
    collector paused from the parse through the last pass."""
    with CollectorPause():
        return audit_files(Program.read(paths))


def audit_source(source: str, path: str = "<string>") -> list[Violation]:
    """Audit one module's source text (the fixture-test entry point)."""
    return audit_files(Program([(path, source)])).violations
