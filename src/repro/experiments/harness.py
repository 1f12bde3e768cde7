"""Shared experiment harness.

Every figure driver goes through :func:`run_training`: build a fresh
environment, build the storage system, size the sampled dataset to the
rank count, run the configured epochs, return the scale-corrected
result.  ``Scale`` centralizes the event-count knobs so tests can run
tiny instances of the *same* experiment code the benchmarks run big.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..analysis import MeanCI, mean_ci
from ..baselines import SYSTEM_SETUPS, StorageSetup, SystemHandle
from ..cluster import ClusterSpec, SUMMIT
from ..dl import (
    DatasetSpec,
    ModelSpec,
    SyntheticDataset,
    TrainingConfig,
    TrainingJob,
    TrainingResult,
)
from ..simcore import Environment, run_all

__all__ = ["Scale", "run_training", "repeat_training", "resolve_setup"]


@dataclass(frozen=True)
class Scale:
    """Event-count control for one experiment run.

    ``files_per_rank`` sets the sampled dataset size
    (``n_ranks × files_per_rank`` files); reported times are multiplied
    by the resulting scale factor.  ``repetitions`` matches the paper's
    three-run averaging.
    """

    files_per_rank: int = 16
    sim_batch_size: int = 8
    repetitions: int = 3
    procs_per_node: int = 6
    epochs_simulated: int = 2
    #: epoch-time estimator (see TrainingConfig.epoch_estimator):
    #: "mean-rank" removes straggler sampling noise when extrapolating
    #: saturated systems from small per-rank samples.
    epoch_estimator: str = "barrier"

    def __post_init__(self):
        sizes = ("files_per_rank", "repetitions", "procs_per_node", "epochs_simulated")
        for name in sizes:
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.sim_batch_size >= 0:
            raise ValueError("sim_batch_size must be >= 0")


def resolve_setup(system: str | StorageSetup) -> StorageSetup:
    if isinstance(system, StorageSetup):
        return system
    try:
        return SYSTEM_SETUPS[system]
    except KeyError:
        raise ValueError(
            f"unknown system {system!r}; choose from {sorted(SYSTEM_SETUPS)}"
        ) from None


def run_training(
    system: str | StorageSetup,
    model: ModelSpec,
    dataset_spec: DatasetSpec,
    n_nodes: int,
    scale: Scale,
    spec: ClusterSpec = SUMMIT,
    batch_size: int = 0,
    epochs: int | None = None,
    seed: int = 0,
    concurrent_jobs: int = 1,
    trace=None,
) -> TrainingResult:
    """Training simulation on one storage system.

    ``concurrent_jobs`` reproduces the paper's §IV-B methodology of
    "two concurrently running DL training jobs per node": that many
    independent jobs (own dataset copy and shuffle stream, disjoint
    rank pools splitting the node's GPUs) share one storage system,
    contending for the PFS, the HVAC servers, and the NVMe.  The
    returned result is the first job's (they are statistically
    identical); its ``epoch_times`` include the contention.

    ``trace`` (an :class:`~repro.simcore.EventTrace`) is attached to the
    freshly built environment so ``repro check`` can fingerprint the
    run's event stream.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if concurrent_jobs < 1:
        raise ValueError("concurrent_jobs must be >= 1")
    if scale.procs_per_node % concurrent_jobs:
        raise ValueError("procs_per_node must divide among concurrent jobs")
    setup = resolve_setup(system)
    procs_per_job = scale.procs_per_node // concurrent_jobs
    n_ranks = n_nodes * procs_per_job
    sample = min(
        dataset_spec.n_train_files, max(n_ranks, n_ranks * scale.files_per_rank)
    )
    env = Environment()
    if trace is not None:
        env.observe(trace)
    # The handle is sized by one job's dataset; jobs use distinct paths
    # (distinct dataset seeds) so they don't share cache entries.
    datasets = []
    for job_idx in range(concurrent_jobs):
        job_spec = dataset_spec
        if job_idx > 0:
            # Each job trains on its own dataset copy (distinct paths,
            # distinct shuffle stream) — no cross-job cache sharing.
            job_spec = replace(
                dataset_spec,
                pfs_dir=f"{dataset_spec.pfs_dir}/job{job_idx}",
            )
        ds, factor = SyntheticDataset.scaled(
            job_spec, sample, seed=seed + 1000 * job_idx
        )
        datasets.append((ds, factor))
    handle: SystemHandle = setup.build(env, spec, n_nodes, datasets[0][0], seed=seed)

    jobs = []
    for job_idx, (ds, factor) in enumerate(datasets):
        config = TrainingConfig(
            model=model,
            dataset=ds,
            n_nodes=n_nodes,
            procs_per_node=procs_per_job,
            batch_size=batch_size,
            epochs=scale.epochs_simulated if epochs is None else epochs,
            scale_factor=factor,
            sim_batch_size=scale.sim_batch_size,
            shuffle_seed=seed + job_idx,
            epoch_estimator=scale.epoch_estimator,
        )
        jobs.append(
            TrainingJob(env, config, handle.backend_for_node, handle.label)
        )

    if concurrent_jobs == 1:
        result = jobs[0].run()
    else:
        procs = [
            env.process(job.run_process(), name=f"job{j}")
            for j, job in enumerate(jobs)
        ]
        run_all(env, procs, "jobs")
        result = jobs[0].result
    if handle.deployment is not None:
        result.cache_hit_rate = handle.deployment.hit_rate()
    handle.teardown()
    return result


def repeat_training(
    system: str | StorageSetup,
    model: ModelSpec,
    dataset_spec: DatasetSpec,
    n_nodes: int,
    scale: Scale,
    total_epochs: int,
    spec: ClusterSpec = SUMMIT,
) -> tuple[MeanCI, list[TrainingResult]]:
    """Paper-style repeated runs at the model's paper batch size: mean ±
    95% CI of the total training time extrapolated to ``total_epochs``
    epochs."""
    results = [
        run_training(
            system,
            model,
            dataset_spec,
            n_nodes,
            scale,
            spec=spec,
            seed=rep,
        )
        for rep in range(scale.repetitions)
    ]
    totals = [r.extrapolate_total(total_epochs) for r in results]
    return mean_ci(totals), results
