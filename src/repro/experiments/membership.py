"""Membership & repair experiment: detector-only vs the gossip stack.

The driver behind ``repro membership``.  One crash/recover scenario —
a correlated two-node "rack burst" killing an adjacent server pair (so
some files lose their *entire* replica set, the case per-read fallback
handles worst) — is replayed under four failover configurations that
differ only in HVAC spec flags:

* ``detector``            — PR-1 state of the art: per-client timeout
  suspicion, per-read replica walk, PFS fallback;
* ``gossip``              — shared suspicion (piggybacked digests +
  anti-entropy), no placement change;
* ``gossip+remap``        — dead servers' hash ranges move to live
  stand-ins;
* ``gossip+remap+repair`` — plus peer-to-peer shard repair after
  recovery (recovered servers rejoin warm).

Reported per mode: mean detection latency, probe RPCs burned against
down servers (the duplicate-probe storm), degraded-read fraction during
the outage, PFS fallbacks, and the first-epoch-after-recovery penalty.
The dominance claim: the full stack beats detector-only on probes,
degraded fraction *and* recovery penalty simultaneously.

A second sweep re-runs the full stack across repair-bandwidth throttles
with the post-recovery epoch starting *while repair streams*, exposing
the repair-bandwidth vs epoch-interference trade-off.

Membership state transitions land in the same SLO window grid as the
read telemetry (``repro.obs.bucket_times`` + a ``count_strip`` row under
each degradation strip), and the raw transition log is the determinism
artifact CI uploads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..cluster import ClusterSpec
from ..faults import FaultSchedule, crash
from ..obs import SLOReport, SpanRecorder, bucket_times, compute_slo
from .comparison import (
    ModeComparison,
    build_deployment,
    dataset_files,
    drain_repair,
    fault_spec,
    run_epoch,
)

__all__ = [
    "MEMBERSHIP_MODES",
    "MembershipResult",
    "SMOKE",
    "membership_comparison",
]

#: the CI-sized run; ``repro membership --smoke`` caps each argument at
#: this (a list argument at this many entries)
SMOKE = dict(n_nodes=4, n_files=12, windows=8, repair_bandwidths=(1e6, 1e7))

#: scenario tuning on top of comparison.FAULT_SPEC_OVERRIDES: two-way
#: replication (so remap has stand-ins to use), fast gossip relative to
#: the ms-scale epochs, suspected->dead escalation inside one outage
MEMBERSHIP_SPEC_OVERRIDES = dict(
    replication_factor=2,
    gossip_interval=0.005,
    suspect_to_dead=0.03,
    probation_period=0.02,
)

#: mode name -> HVAC spec flag overrides
MEMBERSHIP_MODES = {
    "detector": dict(membership_enabled=False),
    "gossip": dict(
        membership_enabled=True, remap_enabled=False, repair_enabled=False
    ),
    "gossip+remap": dict(
        membership_enabled=True, remap_enabled=True, repair_enabled=False
    ),
    "gossip+remap+repair": dict(
        membership_enabled=True, remap_enabled=True, repair_enabled=True
    ),
}


@dataclass
class ModeOutcome:
    """Everything one mode's run produced."""

    mode: str
    warm_seconds: float = 0.0
    outage_seconds: float = 0.0
    recovered_seconds: float = 0.0
    detect_latency: float = math.nan
    dup_probes: int = 0
    degraded_fraction: float = 0.0
    pfs_fallbacks: int = 0
    repair_bytes_peers: int = 0
    repair_bytes_pfs: int = 0
    repair_seconds: float = 0.0
    slo: SLOReport | None = None
    #: merged ``(t, owner, sid, old, new, inc, why)`` transition log
    transitions: list[tuple] = field(default_factory=list)
    #: sim times of every transition (for the window-grid strip)
    transition_times: list[float] = field(default_factory=list)

    @property
    def recovery_penalty(self) -> float:
        return (
            self.recovered_seconds / self.warm_seconds
            if self.warm_seconds
            else math.nan
        )


@dataclass
class MembershipResult(ModeComparison):
    """Four-mode comparison + repair-throttle sweep."""

    n_nodes: int
    n_files: int
    victims: list[int]
    outage_epochs: int
    #: (bandwidth, repair_s, bytes_peer, bytes_pfs, epoch_s, slowdown)
    throttle_rows: list[list] = field(default_factory=list)

    columns = ("mode", "detect (s)", "probes@down", "degraded", "PFS fb",
               "outage (s)", "recovered (s)", "penalty")
    claim = ("full stack strictly dominates detector-only "
             "(probes, degraded fraction, recovery penalty)")
    dashboard_title = "post-crash SLO windows (origin = crash instant)"
    strips = "membership transitions"
    log_name = "transitions"

    @property
    def title(self) -> str:
        return (f"Membership & repair ({self.n_nodes} nodes, "
                f"{self.n_files} files/epoch/node, "
                f"crash nodes {self.victims}, "
                f"{self.outage_epochs} outage epochs)")

    def row(self, oc: ModeOutcome) -> list:
        return [
            oc.detect_latency,
            oc.dup_probes,
            f"{oc.degraded_fraction:.1%}",
            oc.pfs_fallbacks,
            oc.outage_seconds,
            oc.recovered_seconds,
            oc.recovery_penalty,
        ]

    def dominates(self) -> bool:
        """The acceptance predicate: full stack strictly beats
        detector-only on probes, degraded fraction, and recovery
        penalty."""
        det = self.outcomes["detector"]
        full = self.outcomes["gossip+remap+repair"]
        return (
            full.dup_probes < det.dup_probes
            and full.degraded_fraction < det.degraded_fraction
            and full.recovery_penalty < det.recovery_penalty
        )

    def extra_tables(self) -> list[tuple[list[str], list[list], str]]:
        return [(
            ["repair B/s", "repair (s)", "B from peers", "B from PFS",
             "epoch during repair (s)", "slowdown vs warm"],
            self.throttle_rows,
            "Repair-bandwidth sweep (post-recovery epoch overlapping the "
            "repair stream)",
        )]

    def strip_rows(self) -> list[tuple[str, list[int]]]:
        """Membership transitions on each mode's own post-crash grid."""
        return [
            (mode, bucket_times(
                oc.transition_times, oc.slo.window, oc.slo.t0, oc.slo.t1
            ))
            for mode, oc in self.outcomes.items()
        ]

    def log_lines(self, oc: ModeOutcome) -> list[str]:
        return [
            f"{t:.9f} {owner} s{sid} {old}->{new} inc={inc} {why}"
            for t, owner, sid, old, new, inc, why in oc.transitions
        ]

    #: every mode's membership transitions, in (time, owner, server) order
    transition_log = ModeComparison.mode_log


def _collect_transitions(dep) -> list[tuple]:
    """Merge every view's transition log, deterministically ordered."""
    merged = []
    for node_id in sorted(dep.views):
        view = dep.views[node_id]
        for t, sid, old, new, inc, why in view.transitions:
            merged.append((t, view.owner, sid, old, new, inc, why))
    for server in dep.servers:
        if server.board is None:
            continue
        for t, sid, old, new, inc, why in server.board.transitions:
            merged.append((t, server.board.owner, sid, old, new, inc, why))
    merged.sort(key=lambda row: (row[0], row[1], row[2]))
    return merged


def _detection_latencies(dep, victims, t_crash: float) -> list[float]:
    """Per client: how long until it first held a victim suspect/dead."""
    out = []
    for node_id in sorted(dep._clients):
        cli = dep._clients[node_id]
        first = None
        if cli.view is not None:
            for t, sid, _old, new, _inc, _why in cli.view.transitions:
                if t >= t_crash and sid in victims and new in ("suspected", "dead"):
                    first = t
                    break
        else:
            for t, sid in cli.detector.suspicion_log:
                if t >= t_crash and sid in victims:
                    first = t
                    break
        if first is not None:
            out.append(first - t_crash)
    return out


def _probe_count(dep) -> int:
    """RPC attempts burned against down servers: read-path strikes plus
    gossip recovery pings that still failed."""
    m = dep.metrics
    total = (
        m.counter("hvac.client_rpc_timeouts").value
        + m.counter("hvac.client_rpc_failures").value
    )
    for node_id in sorted(dep.gossips):
        total += dep.gossips[node_id].metrics.counter("ping_failures").value
    return total


def _run_mode(
    mode: str,
    spec: ClusterSpec,
    n_nodes: int,
    files,
    victims,
    outage_epochs: int,
    windows: int,
    seed: int,
    trace=None,
    settle: float | None = None,
    drain: bool = True,
) -> ModeOutcome:
    """One full crash -> outage -> recover -> measure cycle."""
    oc = ModeOutcome(mode=mode)
    rec = SpanRecorder()
    env, dep, _ = build_deployment(spec, n_nodes, seed, spans=rec, trace=trace)
    if dep.repair is not None:
        dep.repair.attach_manifest(files)

    run_epoch(env, dep, n_nodes, files)  # cold
    oc.warm_seconds = run_epoch(env, dep, n_nodes, files)

    t_crash = env.now
    dep.inject(FaultSchedule([crash(0.0, v) for v in victims]))
    m = dep.metrics
    probes0 = _probe_count(dep)
    degraded0 = m.counter("hvac.client_degraded_reads").value
    fallbacks0 = m.counter("hvac.client_pfs_fallback").value

    outage_total = 0.0
    for _ in range(outage_epochs):
        outage_total += run_epoch(env, dep, n_nodes, files)
    oc.outage_seconds = outage_total / outage_epochs
    n_outage_reads = n_nodes * len(files) * outage_epochs
    oc.degraded_fraction = (
        m.counter("hvac.client_degraded_reads").value - degraded0
    ) / n_outage_reads
    oc.pfs_fallbacks = m.counter("hvac.client_pfs_fallback").value - fallbacks0

    lats = _detection_latencies(dep, set(victims), t_crash)
    oc.detect_latency = sum(lats) / len(lats) if lats else math.nan

    for v in victims:
        dep.recover_node(v)
    if settle is None:
        settle = 2 * spec.hvac.probation_period
    if settle > 0:
        env.run(until=env.now + settle)
    if drain:
        drain_repair(env, dep)
    oc.recovered_seconds = run_epoch(env, dep, n_nodes, files)
    if not drain:
        drain_repair(env, dep)
    oc.dup_probes = _probe_count(dep) - probes0

    if dep.repair is not None:
        oc.repair_bytes_peers = sum(
            r.bytes_from_peers for r in dep.repair.reports
        )
        oc.repair_bytes_pfs = sum(r.bytes_from_pfs for r in dep.repair.reports)
        oc.repair_seconds = sum(
            r.seconds for r in dep.repair.reports if not r.aborted
        )
    t_end = env.now
    dep.teardown()

    oc.transitions = _collect_transitions(dep)
    oc.transition_times = [row[0] for row in oc.transitions if row[0] >= t_crash]
    window = max((t_end - t_crash) / windows, 1e-9)
    oc.slo = compute_slo(rec, window, origin=t_crash, horizon=t_end)
    return oc


def membership_comparison(
    n_nodes: int = 6,
    n_files: int = 36,
    file_size: int = 25_000,
    victims: tuple[int, ...] = (1, 2),
    outage_epochs: int = 2,
    windows: int = 12,
    repair_bandwidths: tuple[float, ...] = (1e6, 1e7, 1e8, 0.0),
    spec: ClusterSpec | None = None,
    seed: int = 0,
    trace=None,
) -> MembershipResult:
    """Run the four failover modes plus the repair-throttle sweep.

    ``victims`` defaults to an *adjacent* node pair: under modulo
    placement with two-way replication, files homed at the first victim
    lose both replicas — the correlated-failure case where remapping
    pays most.  ``repair_bandwidths`` values of ``0.0`` mean
    unthrottled.
    """
    if n_nodes < 3:
        raise ValueError("membership_comparison needs >= 3 nodes")
    victims = [v % n_nodes for v in victims]
    base = fault_spec(spec, **MEMBERSHIP_SPEC_OVERRIDES)
    files = dataset_files(n_files, file_size)
    result = MembershipResult(
        n_nodes=n_nodes,
        n_files=n_files,
        victims=list(victims),
        outage_epochs=outage_epochs,
        windows=windows,
    )
    for mode, flags in MEMBERSHIP_MODES.items():
        mode_spec = base.with_hvac(**flags)
        result.outcomes[mode] = _run_mode(
            mode, mode_spec, n_nodes, files, victims,
            outage_epochs, windows, seed, trace=trace,
        )

    full_flags = MEMBERSHIP_MODES["gossip+remap+repair"]
    warm = result.outcomes["gossip+remap+repair"].warm_seconds
    for bw in repair_bandwidths:
        sweep_spec = base.with_hvac(**full_flags, repair_bandwidth=bw)
        oc = _run_mode(
            f"repair@{bw:g}", sweep_spec, n_nodes, files, victims,
            outage_epochs, windows, seed, settle=0.0, drain=False,
        )
        result.throttle_rows.append([
            "unthrottled" if bw <= 0 else f"{bw:.0e}",
            oc.repair_seconds,
            oc.repair_bytes_peers,
            oc.repair_bytes_pfs,
            oc.recovered_seconds,
            oc.recovered_seconds / warm if warm else math.nan,
        ])

    return result
