"""Resilience bench (paper §III-H): fault rates vs epoch-time degradation.

Sweeps the fraction of crashed cache servers and prints epoch-time
degradation against the all-PFS bound, then runs the per-fault-kind
matrix (crash / hang / flap / degraded NVMe / flaky link) showing every
epoch completes on timeout-based detection alone.
"""

import pytest

from repro.experiments.resilience import fault_matrix, resilience_sweep

from conftest import BENCH_SCALE


def _run():
    if BENCH_SCALE == "paper":
        sweep = resilience_sweep(
            fail_fractions=(0.0, 0.125, 0.25, 0.5, 0.75),
            n_nodes=16, n_files=96,
        )
        matrix = fault_matrix(n_nodes=8, n_files=64)
    else:
        sweep = resilience_sweep(
            fail_fractions=(0.0, 0.25, 0.5), n_nodes=8, n_files=48
        )
        matrix = fault_matrix(n_nodes=4, n_files=32)
    return sweep, matrix


@pytest.mark.benchmark(group="resilience")
def test_bench_resilience(benchmark, capsys):
    sweep, matrix = benchmark.pedantic(_run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(sweep.render())
        print()
        print(matrix.render())

    # Graceful degradation: slower than warm, bounded by the PFS baseline.
    for warm, degraded in zip(sweep.warm, sweep.degraded):
        assert degraded >= warm * 0.99
        assert degraded < sweep.pfs_baseline
    # Recovery after probation: the recovered epoch beats the degraded
    # one (clients re-adopted the victims) but not warm — the victims'
    # share of the cache comes back cold and re-fetches from the PFS.
    for frac, degraded, recovered in zip(
        sweep.fail_fractions, sweep.degraded, sweep.recovered
    ):
        assert recovered < sweep.pfs_baseline
        if frac:
            assert recovered < degraded
    # Every fault kind completed its epoch.
    assert len(matrix.kinds) == 7
    assert all(t > 0 for t in matrix.epoch_seconds)
