"""Seeded job-arrival process over a tenant fleet.

Generates a deterministic mix of jobs (training epoch sweeps + bursty
inference/eval readers) from named :class:`~repro.simcore.RandomStreams`
children, then replays them against a deployment: each arrival asks the
:class:`~repro.tenancy.admission.AdmissionController` for a verdict,
queued jobs wait for a reservation, degraded jobs run in the client's
``pfs_only`` mode, and admitted jobs read through their own per-tenant
HVAC client.  Everything — interarrival gaps, job shapes, per-burst
file picks — comes from named streams, so the whole fleet timeline
replays bit-for-bit from one seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simcore import AllOf, RandomStreams

from .tenant import TenantSpec

__all__ = ["JobArrival", "JobRecord", "run_jobs", "sample_jobs"]

#: mean of the exponential gap between job arrivals (seconds)
MEAN_INTERARRIVAL = 0.002


@dataclass(frozen=True)
class JobArrival:
    """One job entering the fleet at ``time``."""

    time: float
    spec: TenantSpec
    #: compute node the job's reader runs on
    node: int = 0


@dataclass
class JobRecord:
    """What one arrival did (the experiment's admission evidence)."""

    tenant_id: int
    kind: str
    action: str = ""
    t_arrive: float = 0.0
    t_start: float = 0.0
    t_done: float = 0.0
    reads: int = 0


def sample_jobs(
    seed: int,
    n_jobs: int,
    n_nodes: int,
    first_tenant_id: int = 0,
) -> list[JobArrival]:
    """A seeded job mix: ~half training sweeps, ~half inference bursts.

    Pure function of its arguments — every draw comes from a named
    stream of one ``RandomStreams`` child, so campaigns replay exactly.
    """
    rand = RandomStreams(seed).child("tenancy.arrivals")
    jobs: list[JobArrival] = []
    t = 0.0
    for j in range(n_jobs):
        t += float(rand.exponential(f"gap.{j}", MEAN_INTERARRIVAL))
        tid = first_tenant_id + j
        if int(rand.stream(f"kind.{j}").integers(2)):
            spec = TenantSpec(
                tenant_id=tid,
                kind="inference",
                weight=float(rand.choice(f"weight.{j}", (1.0, 2.0))),
                n_files=4 + int(rand.stream(f"files.{j}").integers(8)),
                file_size=int(rand.uniform(f"fsize.{j}", 20e3, 80e3)),
                reads=12 + int(rand.stream(f"reads.{j}").integers(20)),
                epochs=1 + int(rand.stream(f"bursts.{j}").integers(2)),
                think=float(rand.uniform(f"think.{j}", 0.0, 1e-4)),
                hot_fraction=float(rand.uniform(f"hot.{j}", 0.5, 0.9)),
            )
        else:
            n_files = 8 + int(rand.stream(f"files.{j}").integers(16))
            spec = TenantSpec(
                tenant_id=tid,
                kind="training",
                weight=1.0,
                n_files=n_files,
                file_size=int(rand.uniform(f"fsize.{j}", 40e3, 160e3)),
                reads=n_files,
                epochs=1 + int(rand.stream(f"epochs.{j}").integers(2)),
            )
        jobs.append(
            JobArrival(
                time=t, spec=spec, node=int(rand.stream(f"node.{j}").integers(n_nodes))
            )
        )
    return jobs


def job_plan(spec: TenantSpec, seed: int) -> list[list[tuple[str, int]]]:
    """Per-epoch/burst read plans for one job — pure data.

    Training sweeps the dataset in order; inference bursts draw
    hot-skewed picks from the job's own named stream.
    """
    files = spec.files()
    if spec.kind == "training":
        return [list(files[: spec.reads]) for _ in range(spec.epochs)]
    rand = RandomStreams(seed).child(f"tenancy.job.{spec.tenant_id}")
    n = len(files)
    plans = []
    for burst in range(spec.epochs):
        stream = rand.stream(f"burst.{burst}")
        picks = []
        for _ in range(spec.reads):
            if float(stream.uniform()) < spec.hot_fraction:
                picks.append(0)
            else:
                picks.append(int(stream.integers(n)))
        plans.append([files[i] for i in picks])
    return plans


def run_jobs(env, dep, fleet, jobs, admission, seed: int = 0) -> list[JobRecord]:
    """Replay ``jobs`` against the fleet; returns per-job records.

    Runs the simulation until every non-rejected job has finished its
    reads (queued jobs included — a queued job that never gets a
    reservation would deadlock the caller, so the admission queue limit
    must be sized against the job mix).
    """
    records = [JobRecord(tenant_id=a.spec.tenant_id, kind=a.spec.kind) for a in jobs]

    def job(arrival: JobArrival, rec: JobRecord):
        spec = arrival.spec
        rec.t_arrive = env.now
        fleet.add_tenant(spec)
        decision = admission.request(spec)
        rec.action = decision.action
        if decision.action == "reject":
            rec.t_start = rec.t_done = env.now
            return
        if decision.action == "queue":
            yield decision.event
            rec.action = "queue"  # ran after waiting; keep the verdict
        rec.t_start = env.now
        cli = fleet.client(arrival.node, spec.tenant_id)
        if decision.action == "degrade":
            cli.pfs_only = True
        try:
            for plan in job_plan(spec, seed):
                for path, size in plan:
                    yield from cli.read_file(path, size, arrival.node)
                    rec.reads += 1
                    if spec.think > 0.0:
                        yield spec.think
        finally:
            if decision.action != "degrade":
                admission.release(spec.tenant_id)
        rec.t_done = env.now

    def arrive():
        procs = []
        for arrival, rec in zip(jobs, records):
            if arrival.time > env.now:
                yield arrival.time - env.now
            procs.append(
                env.process(
                    job(arrival, rec), name=f"tenancy.job.t{arrival.spec.tenant_id}"
                )
            )
        yield AllOf(env, procs)

    env.run(env.process(arrive(), name="tenancy.arrivals"))
    return records
