"""One-command evaluation report: every figure, one text document.

``generate_report`` runs a compact version of the full evaluation —
every figure driver at a configurable scale plus the analytic full
sweeps — and renders a single plain-text report in the spirit of
EXPERIMENTS.md.  Exposed on the CLI as ``python -m repro report``.
"""

from __future__ import annotations

import io
from typing import Sequence

from ..analysis import ascii_chart, format_series
from ..cluster import ClusterSpec, SUMMIT
from ..dl import IMAGENET21K, RESNET50, TRESNET_M
from .accuracy_exp import accuracy_comparison
from .batch import batch_size_scaling
from .cache_split import cache_split
from .epochs import epoch_scaling, per_epoch_analysis
from .harness import Scale
from .load_balance import load_balance
from .mdtest_exp import LARGE_FILE, SMALL_FILE, mdtest_scaling, mdtest_scaling_analytic
from .scaling import (
    node_scaling,
    node_scaling_analytic,
    normalized_to_gpfs,
    overhead_vs_xfs,
)
from .slo_exp import slo_scenario

__all__ = ["generate_report"]

_FULL_SWEEP = [1, 4, 16, 64, 256, 512, 1024]


def generate_report(
    scale: Scale | None = None,
    node_counts: Sequence[int] = (2, 8, 32),
    spec: ClusterSpec = SUMMIT,
    include_des: bool = True,
) -> str:
    """Run the evaluation and return the rendered report.

    ``include_des=False`` produces an analytic-only report in seconds;
    with the DES enabled, expect minutes at the default scale.
    """
    scale = scale or Scale(
        files_per_rank=8, sim_batch_size=4, repetitions=1, procs_per_node=4
    )
    nodes = list(node_counts)
    out = io.StringIO()

    def w(*lines: str) -> None:
        for line in lines:
            print(line, file=out)

    w("# HVAC reproduction — generated evaluation report", "")
    w(f"DES node sweep: {nodes}; ranks/node: {scale.procs_per_node}; "
      f"{scale.files_per_rank} files/rank sampled.", "")

    # -- Figs 3-4 ---------------------------------------------------------
    w("## Figs 3-4: MDTest", "")
    if include_des:
        w(mdtest_scaling(SMALL_FILE, nodes, ranks_per_node=scale.procs_per_node,
                         files_per_rank=scale.files_per_rank, spec=spec).render(), "")
    w(mdtest_scaling_analytic(SMALL_FILE, _FULL_SWEEP, spec=spec).render()
      + "   [analytic]", "")
    w(mdtest_scaling_analytic(LARGE_FILE, _FULL_SWEEP, spec=spec).render()
      + "   [analytic]", "")

    # -- Fig 8 / 9 -----------------------------------------------------------
    w("## Figs 8-9: node scaling (ResNet50 / ImageNet21K)", "")
    if include_des:
        fig8 = node_scaling(RESNET50, IMAGENET21K, nodes, scale, spec=spec,
                            total_epochs=10)
        w(fig8.render(), "")
        w(format_series("nodes", fig8.node_counts, normalized_to_gpfs(fig8),
                        title="Fig 9a [DES]: % improvement over GPFS"), "")
        w(format_series("nodes", fig8.node_counts, overhead_vs_xfs(fig8),
                        title="Fig 9b [DES]: % overhead vs XFS"), "")
    full = node_scaling_analytic(RESNET50, IMAGENET21K, _FULL_SWEEP, spec=spec,
                                 total_epochs=10)
    w(full.render() + "   [analytic]", "")
    w(ascii_chart(full.node_counts, full.total_minutes,
                  title="Fig 8(a) shape [analytic]",
                  log_x=True, log_y=True, x_label="nodes", y_label="min"), "")
    w(format_series("nodes", full.node_counts, normalized_to_gpfs(full),
                    title="Fig 9a [analytic]: % improvement over GPFS"), "")

    # -- Figs 10-13 -------------------------------------------------------------
    if include_des:
        mid = nodes[len(nodes) // 2]
        w("## Fig 10: epoch scaling", "")
        w(epoch_scaling(RESNET50, IMAGENET21K, [2, 8, 32, 80], scale,
                        n_nodes=mid, spec=spec,
                        systems=("gpfs", "hvac1", "hvac4", "xfs")).render(), "")
        w("## Fig 11: per-epoch anatomy", "")
        w(per_epoch_analysis(RESNET50, IMAGENET21K, scale, n_nodes=mid,
                             epochs=3, spec=spec).render(), "")
        w("## Fig 12: batch size", "")
        w(batch_size_scaling(TRESNET_M, IMAGENET21K, [4, 32, 128], scale,
                             n_nodes=mid, total_epochs=20, spec=spec,
                             systems=("gpfs", "hvac1", "xfs")).render(), "")
        w("## Fig 13: local/remote split", "")
        w(cache_split(RESNET50, IMAGENET21K, scale, n_nodes=mid,
                      batch_size=16, spec=spec).render(), "")

    # -- §III-H telemetry ------------------------------------------------------
    if include_des:
        w("## §III-H: SLO degradation under a mid-epoch crash", "")
        w(slo_scenario(n_nodes=2, n_files=8, windows=6).render(), "")

    # -- Figs 14-15 --------------------------------------------------------------
    w("## Fig 14: accuracy", "")
    cmp = accuracy_comparison(n_epochs=8)
    w(cmp.render(), "")
    w(f"GPFS and HVAC trajectories identical: {cmp.identical_gpfs_hvac}", "")
    w("## Fig 15: load balance", "")
    w(load_balance([32, 128, 512], n_files=40_000).render(), "")

    return out.getvalue()
