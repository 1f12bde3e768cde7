"""Fig 13: impact of local/remote cache split on HVAC(1×1).

The paper manually pins L% of the dataset to the training node and R%
to remote nodes and observes a negligible difference — Mercury bulk
over Infiniband makes remote NVMe nearly as fast as local.
"""

import pytest

from repro.dl import IMAGENET21K, RESNET50
from repro.experiments.cache_split import cache_split

from conftest import BENCH_SCALE, bench_scale

SPLITS = (1.0, 0.75, 0.5, 0.25, 0.0)


def _run():
    n_nodes = 512 if BENCH_SCALE == "paper" else 16
    return cache_split(
        RESNET50,
        IMAGENET21K,
        bench_scale(),
        n_nodes=n_nodes,
        batch_size=80,
        local_fractions=SPLITS,
    )


@pytest.mark.benchmark(group="fig13")
def test_fig13_cache_split(benchmark, capsys):
    res = benchmark.pedantic(_run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(res.render())
        print(f"max relative spread across splits: "
              f"{100 * res.max_relative_spread():.1f}%")

    # The paper's finding: negligible difference across splits.
    assert res.max_relative_spread() < 0.10
