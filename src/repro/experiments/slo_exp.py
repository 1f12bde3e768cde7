"""SLO scenario: the same epoch with and without a mid-epoch crash.

This is the telemetry subsystem's end-to-end driver (and the ``repro
slo`` CLI command).  It runs the resilience workload twice with a
:class:`~repro.obs.SpanRecorder` attached — once clean, once with a
crash landing ``fault_time`` seconds into the measured epoch — rolls
both span timelines into :class:`~repro.obs.SLOReport`\\ s over the
*same* absolute window grid, and renders the side-by-side degradation
dashboard: p50/p95/p99 read latency per client, degraded-read fraction
per window, and delivered bytes split across NVMe-local / remote-RPC /
PFS-fallback paths.

Because both runs share the seed and the warm phase, every divergence
in the dashboard is attributable to the injected fault.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..cluster import ClusterSpec
from ..faults import FaultSchedule, crash
from ..obs import SLOReport, SpanRecorder, bucket_times, compute_slo
from .comparison import (
    ModeComparison,
    build_deployment,
    dataset_files,
    fault_spec,
    run_epoch,
)

#: detector transition kinds, in lifecycle order (strip row order)
_DETECTOR_KINDS = ("suspect", "probation_expired", "reprobe_ok", "reprobe_fail")

__all__ = ["SMOKE", "SLOScenarioResult", "slo_scenario"]

#: the CI-sized run; ``repro slo --smoke`` caps each argument at this
SMOKE = dict(n_nodes=3, n_files=12, windows=8)


@dataclass
class ModeOutcome:
    """One run of the pair."""

    slo: SLOReport
    #: the raw span timeline (JSONL export)
    spans: SpanRecorder
    #: ``(t, client_node, kind, server_id)`` failure-detector
    #: transitions, on the same grid as the SLO windows
    transitions: list[tuple]


@dataclass
class SLOScenarioResult(ModeComparison):
    """Baseline + faulted runs over one shared window grid.

    Only the dashboard is rendered: the pair has no mode table and no
    dominance claim.
    """

    n_nodes: int
    n_files: int
    fault_time: float
    fault_node: int

    per_client = True
    strips = "failure-detector transitions"
    report_name = "dashboard"

    @property
    def baseline(self) -> SLOReport:
        return self.outcomes["baseline"].slo

    @property
    def faulted(self) -> SLOReport:
        return self.outcomes[f"crash@{self.fault_time:g}s"].slo

    @property
    def dashboard_title(self) -> str:
        return (f"SLO degradation dashboard ({self.n_nodes} nodes, "
                f"{self.n_files} files/epoch/node, "
                f"crash node {self.fault_node})")

    def strip_rows(self) -> list[tuple[str, list[int]]]:
        """One strip per (run, transition kind), so suspicion onset /
        probation expiry / re-probe outcomes line up column-for-column
        with the degraded-fraction rows."""
        rep = self.baseline  # both reports share the absolute grid
        rows = []
        for label, oc in self.outcomes.items():
            for kind in _DETECTOR_KINDS:
                times = [t for t, _node, k, _sid in oc.transitions if k == kind]
                if times:
                    rows.append((
                        f"{label}/{kind}",
                        bucket_times(times, rep.window, rep.t0, rep.t1),
                    ))
        return rows

    def render(self) -> str:
        return self.dashboard()

    def write_logs(self, outdir: str) -> dict[str, str]:
        """One span-timeline JSONL per run."""
        paths = {}
        for label, oc in self.outcomes.items():
            safe = label.replace("@", "_at_").replace(".", "_")
            path = os.path.join(outdir, f"spans_{safe}.jsonl")
            oc.spans.write_jsonl(path)
            paths[f"spans[{label}]"] = path
        return paths


def slo_scenario(
    n_nodes: int = 4,
    n_files: int = 32,
    file_size: int = 25_000,
    fault_time: float = 0.002,
    fault_node: int = 1,
    windows: int = 12,
    spec: ClusterSpec | None = None,
    seed: int = 0,
) -> SLOScenarioResult:
    """Run the baseline/crash pair and aggregate both into SLO windows.

    Each run: cold epoch to warm the cache (excluded from the SLO
    range), then the measured epoch, with the crash injected
    ``fault_time`` seconds in on the faulted run.  Windows are aligned
    to the measured epoch's start and sized so ``windows`` buckets
    cover the *slower* run — identical absolute buckets for both
    reports, which is what makes the dashboard rows comparable.
    """
    if n_nodes < 2:
        raise ValueError("slo_scenario needs >= 2 nodes (one to crash)")
    fault_node = fault_node % n_nodes
    result = SLOScenarioResult(
        n_nodes=n_nodes,
        n_files=n_files,
        fault_time=fault_time,
        fault_node=fault_node,
        windows=windows,
    )
    spec = fault_spec(spec)
    files = dataset_files(n_files, file_size)

    def run(schedule: FaultSchedule | None):
        rec = SpanRecorder()
        env, dep, _ = build_deployment(spec, n_nodes, seed, spans=rec)
        run_epoch(env, dep, n_nodes, files)  # warm the cache
        t0 = env.now
        if schedule is not None:
            dep.inject(schedule)
        run_epoch(env, dep, n_nodes, files)
        t1 = env.now
        transitions = sorted(
            (t, node, kind, sid)
            for node, cli in dep._clients.items()
            for t, kind, sid in cli.detector.transitions
        )
        dep.teardown()
        return rec, t0, t1, transitions

    runs = {
        "baseline": run(None),
        f"crash@{fault_time:g}s": run(
            FaultSchedule([crash(fault_time, fault_node)])
        ),
    }

    # Identical seeds + identical warm phases: both measured epochs
    # start at the same instant; the faulted one just ends later.
    origin = min(t0 for _, t0, _, _ in runs.values())
    horizon = max(t1 for _, _, t1, _ in runs.values())
    window = (horizon - origin) / windows
    for label, (rec, _, _, transitions) in runs.items():
        result.outcomes[label] = ModeOutcome(
            slo=compute_slo(rec, window, origin=origin, horizon=horizon),
            spans=rec,
            transitions=transitions,
        )
    return result
