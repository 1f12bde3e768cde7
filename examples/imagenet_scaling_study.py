#!/usr/bin/env python3
"""ResNet50-on-ImageNet21K scaling study (the paper's Fig 8a workload).

Runs the event-driven simulation across a node sweep for all five
compared systems, then prints the analytic model's full 1→1,024-node
sweep — the reproduction of the paper's headline result: GPFS saturates
at its metadata ceiling while HVAC tracks the XFS-on-NVMe upper bound.

    python examples/imagenet_scaling_study.py [--quick]
"""

import argparse

from repro.analysis import format_series
from repro.dl import IMAGENET21K, RESNET50
from repro.experiments import Scale
from repro.experiments.scaling import (
    node_scaling,
    node_scaling_analytic,
    normalized_to_gpfs,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep for a fast demo")
    args = parser.parse_args()

    if args.quick:
        nodes = [2, 8]
        scale = Scale(files_per_rank=6, sim_batch_size=4,
                      repetitions=1, procs_per_node=4)
    else:
        nodes = [2, 8, 32, 64]
        scale = Scale(files_per_rank=12, sim_batch_size=8,
                      repetitions=1, procs_per_node=6)

    print("running event-driven simulation sweep "
          f"(nodes={nodes}, this takes a moment)...\n")
    des = node_scaling(
        RESNET50, IMAGENET21K, nodes, scale, total_epochs=10,
        systems=("gpfs", "hvac1", "hvac4", "xfs"),
    )
    print(des.render())

    full_nodes = [1, 4, 16, 32, 64, 128, 256, 512, 1024]
    analytic = node_scaling_analytic(
        RESNET50, IMAGENET21K, full_nodes, total_epochs=10
    )
    print()
    print(analytic.render() + "   [analytic, full sweep]")

    print()
    print(format_series(
        "nodes", full_nodes, normalized_to_gpfs(analytic),
        title="Improvement over GPFS, % (paper Fig 9a: >50% at 512/1024)",
        float_fmt="{:.1f}",
    ))


if __name__ == "__main__":
    main()
