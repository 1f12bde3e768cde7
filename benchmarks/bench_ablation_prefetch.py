"""Ablation: cache pre-population vs the epoch-1 penalty (§IV-C).

The paper: "Our future work will investigate utilizing prefetching
techniques to pre-populate the HVAC cache and reduce the performance
overhead of epoch-1."  This bench runs that study: first-epoch time
with a cold cache, versus after a placement-aware prefetch pass, versus
the warm steady state.
"""

import pytest

from repro.analysis import format_table
from repro.cluster import Allocation, SUMMIT
from repro.core import CachePrefetcher, HVACDeployment
from repro.dl import IMAGENET21K, RESNET50, SyntheticDataset, TrainingConfig, TrainingJob
from repro.simcore import Environment
from repro.storage import GPFS

from conftest import bench_scale


def _run():
    scale = bench_scale()
    n_nodes = 8
    n_ranks = n_nodes * scale.procs_per_node
    sample = n_ranks * scale.files_per_rank

    def training(prefetch: bool):
        env = Environment()
        dataset, factor = SyntheticDataset.scaled(IMAGENET21K, sample)
        alloc = Allocation(env, SUMMIT.with_hvac(prefetch_outstanding=8), n_nodes)
        pfs = GPFS(env, SUMMIT.pfs, n_nodes, SUMMIT.network.nic_bandwidth)
        dep = HVACDeployment(alloc, pfs)
        prefetch_time = 0.0
        if prefetch:
            pre = CachePrefetcher(dep, dataset.paths(), dataset.sizes)
            t0 = env.now
            env.run(pre.start())
            prefetch_time = (env.now - t0) * factor
        config = TrainingConfig(
            model=RESNET50,
            dataset=dataset,
            n_nodes=n_nodes,
            procs_per_node=scale.procs_per_node,
            epochs=2,
            scale_factor=factor,
            sim_batch_size=scale.sim_batch_size,
        )
        res = TrainingJob(env, config, dep.client, "HVAC(1x1)").run()
        dep.teardown()
        return res.epoch_times[0], res.epoch_times[1], prefetch_time

    cold_e1, warm, _ = training(prefetch=False)
    pre_e1, pre_warm, pre_time = training(prefetch=True)
    return {
        "cold epoch-1": cold_e1,
        "steady-state epoch": warm,
        "epoch-1 after prefetch": pre_e1,
        "prefetch pass itself": pre_time,
    }


@pytest.mark.benchmark(group="ablation")
def test_ablation_prefetch(benchmark, capsys):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            ["phase", "time (s)"],
            [[k, v] for k, v in rows.items()],
            title="Ablation: pre-populating the cache vs the epoch-1 penalty",
        ))

    # Prefetch converts epoch-1 into (nearly) a steady-state epoch...
    assert rows["epoch-1 after prefetch"] < rows["cold epoch-1"]
    assert rows["epoch-1 after prefetch"] == pytest.approx(
        rows["steady-state epoch"], rel=0.25
    )
    # ...at the cost of a prefetch pass that is itself PFS-bound work.
    assert rows["prefetch pass itself"] > 0
