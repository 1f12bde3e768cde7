"""Fig 12: impact of batch size (TResNet_M & DeepCAM).

The paper's negative result: batch size 4→128 moves training time only
~2–4%, with the same mild trend on GPFS, HVAC and XFS.
"""

import pytest

from repro.dl import DEEPCAM, DEEPCAM_CLIMATE, IMAGENET21K, TRESNET_M
from repro.experiments.batch import batch_size_scaling

from conftest import BENCH_SCALE, bench_scale

BATCHES = [4, 16, 64, 128]


def _run():
    n_nodes = 512 if BENCH_SCALE == "paper" else 8
    panels = {}
    for model, dataset, epochs in (
        (TRESNET_M, IMAGENET21K, 80),
        (DEEPCAM, DEEPCAM_CLIMATE, 20),
    ):
        panels[model.name] = batch_size_scaling(
            model,
            dataset,
            BATCHES,
            bench_scale(),
            n_nodes=n_nodes,
            total_epochs=epochs,
            systems=("gpfs", "hvac1", "hvac4", "xfs"),
        )
    return panels


@pytest.mark.benchmark(group="fig12")
def test_fig12_batch_size(benchmark, capsys):
    panels = benchmark.pedantic(_run, rounds=1, iterations=1)
    with capsys.disabled():
        for res in panels.values():
            print()
            print(res.render())
            for label in res.total_minutes:
                print(f"  {label}: 4→128 improvement "
                      f"{res.improvement_range(label):.1f}%")

    for res in panels.values():
        for label in res.total_minutes:
            # Modest effect, same direction on every system (paper: 2–4%).
            rng = res.improvement_range(label)
            assert -2.0 < rng < 12.0
