#!/usr/bin/env python3
"""The paper's motivation experiment (Figs 3 & 4): MDTest on GPFS vs XFS.

Small files (32 KB) expose the PFS metadata ceiling; large files (8 MB)
expose its bandwidth ceiling; node-local XFS scales linearly in both
regimes.  Prints the DES results for a modest sweep and the analytic
full sweep up to 4,096 nodes.

    python examples/mdtest_motivation.py
"""

from repro.experiments.mdtest_exp import (
    LARGE_FILE,
    SMALL_FILE,
    mdtest_scaling,
    mdtest_scaling_analytic,
)


def main() -> None:
    des_nodes = [1, 4, 16, 64]
    full_nodes = [16, 64, 256, 1024, 4096]

    print("event-driven MDTest (this takes a few seconds)...\n")
    for file_size, name in ((SMALL_FILE, "32 KB"), (LARGE_FILE, "8 MB")):
        des = mdtest_scaling(
            file_size,
            des_nodes,
            ranks_per_node=6,
            files_per_rank=8 if file_size == SMALL_FILE else 3,
        )
        print(des.render())
        ratios = ", ".join(f"{r:.1f}x" for r in des.ratio())
        print(f"XFS/GPFS advantage by node count: {ratios}\n")

    print("analytic full sweep:\n")
    for file_size in (SMALL_FILE, LARGE_FILE):
        print(mdtest_scaling_analytic(file_size, full_nodes).render())
        print()


if __name__ == "__main__":
    main()
