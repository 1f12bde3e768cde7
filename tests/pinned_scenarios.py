"""The six pinned scenarios behind ``tests/test_kernel_fingerprints.py``.

Each is a fixed seed, topology and workload, run with an
:class:`~repro.simcore.EventTrace` observing every fired event, so its
event count and fingerprint are properties of the code.
"""

from repro.simcore import EventTrace


def epochs(trace: EventTrace) -> None:
    """2-node resnet50 epochs (the ``repro check`` determinism run)."""
    from repro.check import _epochs_run

    _epochs_run(seed=0, n_nodes=2, files_per_rank=4)(trace)


def membership(trace: EventTrace) -> None:
    """Crash-burst membership/repair smoke (the races scenario)."""
    from repro.check.races import membership_smoke

    membership_smoke(seed=0, trace=trace)


def resilience(trace: EventTrace) -> None:
    """Resilience sweep, fail fractions 0.0/0.5 on 4 nodes."""
    from repro.experiments.resilience import resilience_sweep

    resilience_sweep(
        fail_fractions=(0.0, 0.5),
        n_nodes=4,
        n_files=12,
        seed=0,
        trace=trace,
    )


def tenancy(trace: EventTrace) -> None:
    """Smoke-scale hot-storm isolation, all three cache modes; the
    shrunken cache_fraction keeps it in the full-scale thrash regime."""
    from repro.experiments.tenancy import SMOKE, tenancy_isolation

    tenancy_isolation(**SMOKE, trace=trace)


def prefetch(trace: EventTrace) -> None:
    """Smoke-scale clairvoyant prefetch comparison, all three modes plus
    the crash leg."""
    from repro.experiments.prefetch import SMOKE, prefetch_comparison

    prefetch_comparison(**SMOKE, trace=trace)


def fuzz_single(trace: EventTrace) -> None:
    """One seeded fuzz-executor scenario end to end."""
    from repro.fuzz.executor import execute
    from repro.fuzz.scenario import ScenarioGenerator

    execute(ScenarioGenerator(seed=7).sample(0), trace=trace)


SCENARIOS = {
    run.__name__: run
    for run in (epochs, membership, resilience, tenancy, prefetch, fuzz_single)
}
