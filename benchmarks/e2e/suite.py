"""The six pinned workloads of the end-to-end benchmark.

A workload is one paper result (or one tool run users wait for), built
from *parts*: independent calls into ``repro``'s public API.  One call of
every part, in order, is a *pass*.  The harness times each part on its
own and reports the sum of the parts' medians over a run's passes.

Nothing here imports ``repro`` at module level: the harness imports each
workload's ``modules`` itself, so it can time the imports as set-up and
fail cleanly when the source tree is missing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

__all__ = [
    "WORKLOADS",
    "Part",
    "PartResult",
    "Workload",
    "canonical",
    "result_digest",
]


@dataclass
class PartResult:
    """What one part returns to the harness."""

    #: simulated reads (DES), scenarios (fuzz) or source files (check)
    ops: int
    #: the simulated outputs, JSON-able; hashed into ``result_digest``
    outputs: Any
    #: cache hit rates of the HVAC runs in this part (``core.hit_ratio``)
    hit_rates: tuple[float, ...] = ()


@dataclass(frozen=True)
class Part:
    label: str
    run: Callable[[], PartResult]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: False when the inputs are pinned and ``--seed`` is ignored
    seeded: bool
    #: imported (and timed as set-up) before the first call
    modules: tuple[str, ...]
    #: ``(seed, small) -> parts``; ``small`` is the warm-up / test size
    parts: Callable[[int, bool], list[Part]]
    #: raises ``ValueError`` when a full pass's outputs are implausible
    validate: Callable[[list[PartResult]], None] = field(default=lambda results: None)


def canonical(value: Any) -> Any:
    """JSON-able form with floats at 10 significant digits, so a change
    that only reorders a float sum keeps the digest."""
    if isinstance(value, float):
        return format(value, ".10g")
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def result_digest(results: list[PartResult]) -> str:
    """Hash of a pass's simulated outputs (never event counts or the
    event fingerprint, so an optimisation that removes events keeps it)."""
    blob = json.dumps(
        canonical([r.outputs for r in results]), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


# -- DES training runs (fig8_sweep, scale_out_hvac) ------------------------

FIG8_SYSTEMS = ("gpfs", "hvac1", "hvac2", "hvac4", "xfs")
HVAC_SYSTEMS = frozenset({"hvac1", "hvac2", "hvac4"})


def _training_point(system: str, n_nodes: int, files_per_rank: int, seed: int) -> PartResult:
    from repro.dl import IMAGENET21K, RESNET50
    from repro.experiments import Scale, run_training

    scale = Scale(
        files_per_rank=files_per_rank, sim_batch_size=8, procs_per_node=4, repetitions=1
    )
    res = run_training(system, RESNET50, IMAGENET21K, n_nodes, scale, seed=seed)
    # every rank reads its files_per_rank sample once per simulated epoch
    reads = n_nodes * scale.procs_per_node * files_per_rank * scale.epochs_simulated
    return PartResult(
        ops=reads,
        outputs={
            "system": res.system_label,
            "nodes": n_nodes,
            "epoch_times": list(res.epoch_times),
            "hit_rate": res.cache_hit_rate,
        },
        hit_rates=(res.cache_hit_rate,) if system in HVAC_SYSTEMS else (),
    )


def _fig8_parts(seed: int, small: bool) -> list[Part]:
    nodes = (2,) if small else (2, 8, 32)
    fpr = 2 if small else 8
    return [
        Part(f"{system}@{n}", partial(_training_point, system, n, fpr, seed))
        for system in FIG8_SYSTEMS
        for n in nodes
    ]


def _scale_out_parts(seed: int, small: bool) -> list[Part]:
    n = 8 if small else 128
    return [Part(f"hvac4@{n}", partial(_training_point, "hvac4", n, 2 if small else 8, seed))]


def _validate_training(results: list[PartResult]) -> None:
    for r in results:
        out = r.outputs
        _require(
            all(_finite_positive(t) for t in out["epoch_times"]),
            f"{out['system']}@{out['nodes']}: non-positive epoch time",
        )
        _require(0.0 <= out["hit_rate"] <= 1.0, f"{out['system']}: hit rate out of range")
        if r.hit_rates:
            # the second epoch re-reads the cached sample
            _require(out["hit_rate"] > 0.0, f"{out['system']}@{out['nodes']}: no cache hits")


# -- MDTest metadata sweep (gpfs_metadata) ---------------------------------


def _mdtest_point(system: str, n_nodes: int, files_per_rank: int) -> PartResult:
    from repro.experiments.mdtest_exp import mdtest_scaling

    ranks_per_node = 4
    res = mdtest_scaling(
        32 * 1024, [n_nodes], ranks_per_node=ranks_per_node,
        files_per_rank=files_per_rank, systems=(system,),
    )
    (label, series), = res.tx_per_sec.items()
    return PartResult(
        ops=n_nodes * ranks_per_node * files_per_rank,
        outputs={"system": label, "nodes": n_nodes, "tx_per_sec": series[0]},
    )


def _mdtest_parts(seed: int, small: bool) -> list[Part]:
    nodes = (4,) if small else (4, 16, 64)
    fpr = 8 if small else 96
    return [
        Part(f"{system}@{n}", partial(_mdtest_point, system, n, fpr))
        for system in ("gpfs", "xfs")
        for n in nodes
    ]


def _validate_mdtest(results: list[PartResult]) -> None:
    tx = {(r.outputs["system"], r.outputs["nodes"]): r.outputs["tx_per_sec"] for r in results}
    for (system, nodes), value in tx.items():
        _require(_finite_positive(value), f"{system}@{nodes}: tx/s {value}")
        if system == "GPFS":
            # Fig 3: node-local XFS beats the shared PFS's metadata ceiling
            _require(tx[("XFS-on-NVMe", nodes)] > value, f"XFS not above GPFS at {nodes} nodes")


# -- prefetch under cache pressure (cache_thrash) --------------------------

_PREFETCH_FIELDS = (
    "epoch1_seconds", "steady_epoch_seconds", "steady_p99",
    "steady_degraded_fraction", "total_seconds", "pfs_bytes", "hit_rate",
    "files_staged", "invalidations", "divergences", "decompress_seconds",
)


def _prefetch_run(n_files: int, epochs: int, seed: int) -> PartResult:
    from repro.experiments.prefetch import prefetch_comparison

    res = prefetch_comparison(
        n_nodes=4, n_files=n_files, file_size=75_000, epochs=epochs, windows=8, seed=seed
    )
    return PartResult(
        # every mode's readers sweep the whole dataset once per epoch
        ops=n_files * epochs * len(res.outcomes),
        outputs={
            "modes": {
                mode: {f: getattr(oc, f) for f in _PREFETCH_FIELDS}
                for mode, oc in res.outcomes.items()
            },
            "dominates": res.dominates(),
        },
        hit_rates=tuple(oc.hit_rate for oc in res.outcomes.values()),
    )


def _prefetch_parts(seed: int, small: bool) -> list[Part]:
    n_files = 96 if small else 768
    return [Part(f"prefetch@{n_files}", partial(_prefetch_run, n_files, 3, seed))]


def _validate_prefetch(results: list[PartResult]) -> None:
    for mode, out in results[0].outputs["modes"].items():
        _require(_finite_positive(out["epoch1_seconds"]), f"{mode}: epoch-1 time")
        _require(0.0 <= out["hit_rate"] <= 1.0, f"{mode}: hit rate out of range")
        _require(out["pfs_bytes"] > 0, f"{mode}: no PFS traffic on a thrashing dataset")


# -- fuzz campaign (fuzz_campaign) -----------------------------------------

#: Pinned: campaigns of different seeds differ in cost by up to 2.3x,
#: which would swamp any regression bound.
FUZZ_SEED = 7


def _campaign(runs: int) -> PartResult:
    from repro.fuzz import run_campaign

    res = run_campaign(runs=runs, seed=FUZZ_SEED, shrink_failures=False)
    return PartResult(
        ops=len(res.runs),
        outputs={
            "runs": [
                [r.digest, r.origin, r.kind, r.n_faults, r.score, list(r.violated)]
                for r in res.runs
            ],
            "violations": res.n_violations,
        },
    )


def _fuzz_parts(seed: int, small: bool) -> list[Part]:
    runs = 2 if small else 20
    return [Part(f"campaign@{runs}", partial(_campaign, runs))]


def _validate_fuzz(results: list[PartResult]) -> None:
    out = results[0].outputs
    _require(out["violations"] == 0, f"campaign reported {out['violations']} invariant violation(s)")


# -- static checkers over the source tree (check_static) -------------------


def _source_root(small: bool) -> str:
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    return os.path.join(root, "simcore") if small else root


def _findings(result, root: str) -> dict:
    """Violations and stale waivers as (path relative to the tree, line,
    rule), so the digest does not depend on where the tree lives."""
    return {
        "violations": sorted(
            [os.path.relpath(v.path, root), v.line, v.rule] for v in result.violations
        ),
        "stale": sorted(
            [os.path.relpath(w.path, root), w.line, sorted(w.codes)]
            for w in result.stale_waivers
        ),
    }


def _lint(root: str) -> PartResult:
    from repro.check import lint_tree

    res = lint_tree([root], taint=True)
    return PartResult(ops=res.n_files, outputs=_findings(res, root))


def _perf(root: str) -> PartResult:
    from repro.check import perf_lint_tree

    res = perf_lint_tree([root])
    return PartResult(ops=0, outputs=_findings(res, root))


def _cells(root: str) -> PartResult:
    from repro.check import audit_tree

    res = audit_tree([root])
    outputs = _findings(res, root)
    outputs["freshness"] = sorted(res.freshness)
    return PartResult(ops=0, outputs=outputs)


def _check_parts(seed: int, small: bool) -> list[Part]:
    root = _source_root(small)
    return [
        Part("lint", partial(_lint, root)),
        Part("perf", partial(_perf, root)),
        Part("cells", partial(_cells, root)),
    ]


def _validate_check(results: list[PartResult]) -> None:
    for label, r in zip(("lint", "perf", "cells"), results):
        for kind, found in r.outputs.items():
            _require(not found, f"{label}: the source tree is not clean ({kind}: {found[:3]})")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig8_sweep",
            "The Fig 8 node-scaling sweep users wait for; it drives all three storage paths.",
            True,
            ("repro.experiments", "repro.dl"),
            _fig8_parts,
            _validate_training,
        ),
        Workload(
            "scale_out_hvac",
            "HVAC at 128 nodes: remote hits load core, rpc and cluster; deepest event heap and largest RSS.",
            True,
            ("repro.experiments", "repro.dl"),
            _scale_out_parts,
            _validate_training,
        ),
        Workload(
            "gpfs_metadata",
            "MDTest on GPFS and XFS bypasses HVAC: the no-change control for core and rpc work.",
            False,
            ("repro.experiments.mdtest_exp",),
            _mdtest_parts,
            _validate_mdtest,
        ),
        Workload(
            "cache_thrash",
            "Dataset larger than the aggregate cache: inserts, evictions and staging every epoch.",
            True,
            ("repro.experiments.prefetch",),
            _prefetch_parts,
            _validate_prefetch,
        ),
        Workload(
            "fuzz_campaign",
            "The only workload with observers, faults, membership and tenancy switched on.",
            False,
            ("repro.fuzz",),
            _fuzz_parts,
            _validate_fuzz,
        ),
        Workload(
            "check_static",
            "Static checkers over the source tree run no simulation: the control for sim-layer work.",
            False,
            ("repro.check",),
            _check_parts,
            _validate_check,
        ),
    )
}
