"""Fig 11: per-epoch anatomy — epoch-1, best random epoch, average epoch.

The paper's two claims:
* epoch-1 under every HVAC variant ≈ a GPFS epoch (every server must
  touch the PFS once), and
* once cached, the epoch time drops ≈3× vs GPFS for HVAC(4×1) at 512
  nodes [BS=4, Eps=10].
"""

import pytest

from repro.dl import IMAGENET21K, RESNET50
from repro.experiments.epochs import per_epoch_analysis

from conftest import BENCH_SCALE, bench_scale


def _run():
    n_nodes = 512 if BENCH_SCALE == "paper" else 32
    return per_epoch_analysis(
        RESNET50,
        IMAGENET21K,
        bench_scale(),
        n_nodes=n_nodes,
        epochs=4,
    ), n_nodes


@pytest.mark.benchmark(group="fig11")
def test_fig11_per_epoch(benchmark, capsys):
    res, n_nodes = benchmark.pedantic(_run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(res.render())
        for label in ("HVAC(1x1)", "HVAC(2x1)", "HVAC(4x1)"):
            print(f"{label} cached-epoch speedup vs GPFS: "
                  f"{res.speedup_vs_gpfs(label):.2f}x")

    gpfs_epoch = res.r_epoch["GPFS"]
    for label in ("HVAC(1x1)", "HVAC(2x1)", "HVAC(4x1)"):
        # epoch-1 ≈ GPFS (within 40%: the HVAC path adds some latency
        # on top of the same PFS traffic).
        assert res.epoch1[label] == pytest.approx(res.epoch1["GPFS"], rel=0.40)
        # cached epochs beat epoch 1
        assert res.r_epoch[label] < res.epoch1[label]
        # avg sits between
        assert res.r_epoch[label] <= res.avg_epoch[label] <= res.epoch1[label]

    if BENCH_SCALE == "paper":
        # The ≈3× cached-epoch claim needs the saturated 512-node regime.
        assert res.speedup_vs_gpfs("HVAC(4x1)") > 2.0
