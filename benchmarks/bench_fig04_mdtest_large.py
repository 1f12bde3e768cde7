"""Fig 4: MDTest 8 MB open-read-close transactions/s, GPFS vs XFS-on-NVMe.

Large files shift GPFS from metadata-bound to bandwidth-bound: the
ceiling becomes aggregate PFS bandwidth (2.5 TB/s) while XFS-on-NVMe
(22.5 TB/s aggregate at 4,096 nodes) keeps scaling.
"""

import pytest

from repro.experiments.mdtest_exp import LARGE_FILE, mdtest_scaling, mdtest_scaling_analytic

from conftest import BENCH_SCALE, bench_nodes, paper_nodes


def _run():
    # Large files mean few transactions, so the DES can afford node
    # counts that reach GPFS's bandwidth saturation (≈455-node
    # crossover): the ratio trend needs a point near it.
    nodes = bench_nodes() if BENCH_SCALE == "paper" else [8, 64, 256]
    des = mdtest_scaling(LARGE_FILE, nodes, ranks_per_node=4, files_per_rank=4)
    analytic = mdtest_scaling_analytic(LARGE_FILE, paper_nodes())
    return des, analytic


@pytest.mark.benchmark(group="fig04")
def test_fig04_mdtest_large_files(benchmark, capsys):
    des, analytic = benchmark.pedantic(_run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(des.render())
        print()
        print(analytic.render() + "   [analytic, full sweep]")

    # Bandwidth regime: GPFS tx ceiling ≈ 2.5 TB/s ÷ 8 MiB, flat at scale.
    g = analytic.tx_per_sec["GPFS"]
    assert g[-1] == pytest.approx(2.51e12 / LARGE_FILE, rel=0.05)
    assert g[-1] == pytest.approx(g[-2], rel=0.05)
    # XFS aggregate at 4,096-node extrapolation ≈ 22.5 TB/s (paper §II-C):
    x_per_node_bw = analytic.tx_per_sec["XFS-on-NVMe"][-1] * LARGE_FILE / 1024
    assert x_per_node_bw * 4096 == pytest.approx(22.5e12, rel=0.1)
    # The DES trend: the XFS/GPFS ratio grows with node count (linear vs
    # shared ceiling).  The absolute crossover sits near 455 nodes
    # (2.5 TB/s ÷ 5.5 GB/s per node), so small sweeps can start below 1.
    ratios = des.ratio()
    assert ratios[-1] > ratios[0]
    # And at 4,096 nodes the analytic ratio is the paper's ≈9×
    # (22.5 TB/s aggregate NVMe vs 2.5 TB/s GPFS, §II-C).
    from repro.cluster import SUMMIT
    from repro.dl import IMAGENET21K, RESNET50
    from repro.model import AnalyticModel

    m4096 = AnalyticModel(SUMMIT, RESNET50, IMAGENET21K, 4096)
    full_ratio = (m4096.predict_mdtest("xfs", LARGE_FILE)
                  / m4096.predict_mdtest("gpfs", LARGE_FILE))
    assert full_ratio == pytest.approx(22.5 / 2.5, rel=0.15)
