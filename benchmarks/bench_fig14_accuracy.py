"""Fig 14: training-to-accuracy — HVAC does not perturb SGD.

GPFS and HVAC feed the learner identical shuffle sequences, so their
top-1/top-5 trajectories are bit-identical; a statically sharded loader
(the contrasted technique) degrades accuracy.
"""

import pytest

from repro.experiments.accuracy_exp import accuracy_comparison

from conftest import BENCH_SCALE


def _run():
    epochs = 20 if BENCH_SCALE == "paper" else 10
    return accuracy_comparison(n_epochs=epochs, n_shards=16, eval_every=20)


@pytest.mark.benchmark(group="fig14")
def test_fig14_accuracy(benchmark, capsys):
    cmp = benchmark.pedantic(_run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(cmp.render())
        n = len(cmp.gpfs.iterations)
        idxs = [0, n // 4, n // 2, 3 * n // 4, n - 1]
        print("\niter   GPFS-top1  HVAC-top1  sharded-top1")
        for i in idxs:
            print(f"{cmp.gpfs.iterations[i]:5d}  {cmp.gpfs.top1[i]:9.3f}  "
                  f"{cmp.hvac.top1[i]:9.3f}  {cmp.sharded.top1[i]:12.3f}")

    # Bit-identical GPFS vs HVAC trajectories (the paper's claim).
    assert cmp.identical_gpfs_hvac
    # Both reach their accuracy thresholds at the same iterations.
    thresh = 0.95 * cmp.gpfs.final_top1()
    assert (cmp.gpfs.iterations_to_top1(thresh)
            == cmp.hvac.iterations_to_top1(thresh))
    # Sharding degrades the final accuracy.
    assert cmp.sharded.final_top1() < cmp.gpfs.final_top1()
