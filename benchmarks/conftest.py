"""Shared benchmark configuration.

Benchmarks double as the paper's figure generators: each bench runs the
experiment at a configurable scale and *prints the figure's rows* so
``pytest benchmarks/ --benchmark-only -s`` regenerates the evaluation.

Scale knobs (environment variables, all optional):

* ``HVAC_BENCH_SCALE`` — ``small`` (default; CI-friendly), ``paper``
  (closer to the paper's node counts; minutes of wall time).
"""

import os
from pathlib import Path

import pytest

from repro.dl import IMAGENET21K, RESNET50
from repro.experiments import Scale
from repro.experiments.scaling import node_scaling, node_scaling_analytic

BENCH_SCALE = os.environ.get("HVAC_BENCH_SCALE", "small")

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def bench_scale() -> Scale:
    if BENCH_SCALE == "paper":
        return Scale(
            files_per_rank=16,
            sim_batch_size=8,
            repetitions=3,
            procs_per_node=6,
            epoch_estimator="mean-rank",
        )
    return Scale(
        files_per_rank=8, sim_batch_size=4, repetitions=1, procs_per_node=4
    )


def bench_nodes() -> list[int]:
    """Node sweep for DES benches (Fig 8-style)."""
    if BENCH_SCALE == "paper":
        return [1, 8, 32, 128, 512]
    return [2, 8, 32]


def paper_nodes() -> list[int]:
    """The paper's full sweep — used by analytic benches (instant)."""
    return [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


def documented_table(heading: str) -> tuple[list[str], list[list[str]]]:
    """Header and body cells of the first table under the EXPERIMENTS.md
    section whose heading starts with ``heading``."""
    lines = EXPERIMENTS.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    rows: list[list[str]] = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows or line.startswith("## "):
            break
    return rows[0], rows[2:]


@pytest.fixture(scope="session")
def scale() -> Scale:
    return bench_scale()


def node_sweep(model, dataset):
    """One Fig 8 panel: the DES sweep over :func:`bench_nodes` and the
    analytic sweep over :func:`paper_nodes`, ``(des, analytic)``."""
    des = node_scaling(
        model,
        dataset,
        bench_nodes(),
        bench_scale(),
        systems=("gpfs", "hvac1", "hvac2", "hvac4", "xfs"),
        total_epochs=10,
    )
    analytic = node_scaling_analytic(model, dataset, paper_nodes(), total_epochs=10)
    return des, analytic


@pytest.fixture(scope="session")
def resnet50_sweep():
    """Fig 8(a)'s sweep, simulated once per session and held in memory:
    Fig 9 normalizes the same runs.  Calling it returns the sweep; the
    first caller pays for the simulation."""
    memo = []

    def sweep():
        if not memo:
            memo.append(node_sweep(RESNET50, IMAGENET21K))
        return memo[0]

    return sweep
