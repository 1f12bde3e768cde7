"""The fuzzer's invariant checker.

Seven invariants, each a property the paper's resilience story (§III-H)
promises under *any* fault schedule; every one is checked against the
:class:`~repro.fuzz.executor.Observation` a scenario run produced:

``hung_read``
    Liveness: every epoch finishes inside a deadline derived from the
    warm epoch (client-side timeouts bound every wait, so a wedged read
    means a lost wakeup, not a slow path).
``retry_bound``
    No unbounded retry: no read span accumulates more strikes than the
    spec's retry budget allows.
``read_conservation``
    Every completed read's bytes are fully accounted local + remote +
    PFS — data is served, never invented or dropped.
``determinism``
    Same-seed double runs produce identical event-stream fingerprints
    (checked when the campaign schedules a double run; only those runs,
    and failing ones, are traced).
``slo_recovery``
    After the last fault heals and every probation expires, the SLO
    grid's degraded-read fraction returns to the floor — and no failed
    re-probe transitions land past that point (this is where the
    failure-detector transitions feed in).
``repair_convergence``
    With the membership stack on: within a bounded window after heal,
    every client view routes to every healthy server again and repair
    has drained.
``tenant_isolation``
    Multi-tenant scenarios only: every completed read is attributed to
    the tenant that owns the path it read — a mismatch means metric and
    SLO scopes are polluted across namespaces.  Fairness under faults
    is *not* a hard bound (a fault legitimately degrades whichever
    tenant sits on the failed node), so the per-tenant degraded-fraction
    spread feeds only the margin: the wider the storm lands on one
    tenant, the closer to 0.

Each check also yields a *margin* in ``[0, 1]`` — 0 at (or past) the
bound, 1 far from it — which is the autopilot's near-violation signal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = [
    "INVARIANTS",
    "InvariantConfig",
    "InvariantReport",
    "InvariantViolation",
    "check_observation",
]

INVARIANTS = (
    "hung_read",
    "retry_bound",
    "read_conservation",
    "determinism",
    "slo_recovery",
    "repair_convergence",
    "tenant_isolation",
)


@dataclass(frozen=True)
class InvariantConfig:
    """Bounds for one campaign (stored verbatim in every case file)."""

    #: absolute slack + warm-epoch multiple: epoch deadline =
    #: ``deadline_slack + deadline_factor * warm_duration``
    deadline_slack: float = 0.5
    deadline_factor: float = 10.0
    #: extra strikes tolerated per read span beyond the spec's budget
    retry_slack: int = 0
    #: max degraded-read fraction allowed in post-recovery SLO windows
    degraded_floor: float = 0.0
    #: margin reference scale for the floor when it is 0
    floor_ref: float = 0.05
    #: repair + view convergence must complete this long after settle
    convergence_window: float = 0.5
    #: SLO windows across the post-fault range
    windows: int = 12
    #: campaign: double-run the fingerprint check every N-th run
    determinism_every: int = 4
    #: margin reference scale for the per-tenant degraded-fraction
    #: spread (tenant_isolation); margin = 1 - spread / isolation_ref
    isolation_ref: float = 1.0
    #: shrinker: total re-check budget
    max_shrink_checks: int = 150

    def __post_init__(self) -> None:
        # ``not x >= bound`` so a NaN fails too
        if not self.windows >= 1:
            raise ValueError("windows must be >= 1")
        for name in ("deadline_factor", "floor_ref", "isolation_ref"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("deadline_slack", "retry_slack", "convergence_window",
                     "determinism_every", "max_shrink_checks"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "InvariantConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass(frozen=True)
class InvariantViolation:
    """One bound breach: addressable, comparable, JSON-friendly."""

    invariant: str
    message: str
    value: float
    bound: float

    def render(self) -> str:
        return (f"{self.invariant}: {self.message} "
                f"(value {self.value:g}, bound {self.bound:g})")


@dataclass
class InvariantReport:
    """All verdicts for one observation."""

    violations: list[InvariantViolation] = field(default_factory=list)
    #: invariant -> near-violation margin in [0, 1]
    margins: dict[str, float] = field(default_factory=dict)
    #: invariants that could not be evaluated (e.g. no double run)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violated(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(v.invariant for v in self.violations))

    @property
    def score(self) -> float:
        """The autopilot's interestingness key: the smallest margin."""
        return min(self.margins.values(), default=1.0)

    def render(self) -> str:
        lines = []
        for v in self.violations:
            lines.append(f"VIOLATED {v.render()}")
        for name in sorted(self.margins):
            if name not in self.violated:
                lines.append(f"ok       {name} (margin {self.margins[name]:.2f})")
        for name in self.skipped:
            lines.append(f"skipped  {name}")
        return "\n".join(lines)


def _clip(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def check_observation(
    obs, config: InvariantConfig, second_fingerprint: str | None = None
) -> InvariantReport:
    """Evaluate every invariant against one executed scenario.

    ``determinism`` is checked only when ``second_fingerprint`` is
    given, and then ``obs`` must come from a traced run: comparing it
    with an untraced one is a caller error, not a divergence."""
    if second_fingerprint is not None and obs.fingerprint is None:
        raise ValueError(
            "second_fingerprint given for an untraced observation"
        )
    report = InvariantReport()
    # three checks read the run's one span fold
    _check_hung(obs, config, report)
    _check_retries(obs, config, report)
    _check_conservation(obs.fold, report)
    _check_determinism(obs, report, second_fingerprint)
    _check_slo(obs, config, report)
    _check_convergence(obs, config, report)
    _check_isolation(obs, config, report)
    return report


def _violate(report, name, message, value, bound) -> None:
    report.violations.append(InvariantViolation(name, message, value, bound))


def _check_hung(obs, config, report) -> None:
    worst = 0.0
    for ep in obs.epochs:
        worst = max(worst, ep.duration / ep.deadline if ep.deadline else 0.0)
        if ep.hung_clients:
            _violate(
                report, "hung_read",
                f"epoch '{ep.label}' hit its deadline with clients "
                f"{list(ep.hung_clients)} still reading",
                ep.duration, ep.deadline,
            )
    report.margins["hung_read"] = _clip(1.0 - worst)


def _check_retries(obs, config, report) -> None:
    allowed = obs.allowed_strikes + config.retry_slack
    spans = obs.fold.reads + obs.fold.segments
    worst = max((span.strikes for span in spans), default=0)
    # reported in begin order, reads and segments interleaved
    for span in sorted((s for s in spans if s.strikes > allowed),
                       key=lambda s: s.sid):
        _violate(
            report, "retry_bound",
            f"span #{span.sid} '{span.name}' recorded {span.strikes} strikes",
            span.strikes, allowed,
        )
    report.margins["retry_bound"] = _clip(1.0 - worst / allowed) if allowed else 1.0


def _check_conservation(fold, report) -> None:
    worst = 0.0
    checked = 0
    for span in fold.reads:
        if span.t1 is None:
            continue
        requested = int(span.attrs.get("bytes", 0))
        if requested <= 0:
            continue
        routed = sum(span.routed.values())
        checked += 1
        err = abs(routed - requested) / requested
        worst = max(worst, err)
        if routed != requested:
            _violate(
                report, "read_conservation",
                f"span #{span.sid} read {span.attrs.get('path')!r}: "
                f"{requested} bytes requested, {routed} accounted",
                routed, requested,
            )
    # binary in spirit: any loss collapses the margin
    report.margins["read_conservation"] = 1.0 if (checked and worst == 0.0) else (
        _clip(1.0 - worst) if checked else 1.0
    )


def _check_determinism(obs, report, second_fingerprint) -> None:
    if second_fingerprint is None:
        report.skipped.append("determinism")
        return
    same = obs.fingerprint == second_fingerprint
    report.margins["determinism"] = 1.0 if same else 0.0
    if not same:
        _violate(
            report, "determinism",
            f"double run diverged: {obs.fingerprint[:12]}… vs "
            f"{second_fingerprint[:12]}…",
            1.0, 0.0,
        )


def _recovery_windows(obs):
    if obs.slo is None:
        return []
    return [w for w in obs.slo.totals.windows if w.t0 >= obs.t_settled - 1e-12]


def _check_slo(obs, config, report) -> None:
    if obs.aborted or obs.slo is None:
        report.skipped.append("slo_recovery")
        return
    floor = config.degraded_floor
    ref = max(floor, config.floor_ref)
    worst = 0.0
    for w in _recovery_windows(obs):
        worst = max(worst, w.degraded_fraction)
        if w.degraded_fraction > floor + 1e-12:
            _violate(
                report, "slo_recovery",
                f"window [{w.t0:.4f}, {w.t1:.4f}) degraded fraction "
                f"{w.degraded_fraction:.3f} after recovery",
                w.degraded_fraction, floor,
            )
    # a re-probe that *fails* after every fault healed is detection
    # flakiness even if no read degraded — the detector transitions
    # (same grid as the membership strips) carry the evidence
    late_fails = [
        (t, owner, sid)
        for t, owner, kind, sid in obs.detector_transitions
        if kind == "reprobe_fail" and t >= obs.t_settled - 1e-12
    ]
    for t, owner, sid in late_fails:
        worst = max(worst, 1.0)
        _violate(
            report, "slo_recovery",
            f"client {owner} re-probe of server {sid} failed at "
            f"t={t:.4f}, after the last fault healed",
            1.0, 0.0,
        )
    report.margins["slo_recovery"] = _clip(1.0 - worst / ref)


def _check_convergence(obs, config, report) -> None:
    if not obs.scenario.membership:
        report.skipped.append("repair_convergence")
        return
    if obs.aborted:
        report.skipped.append("repair_convergence")
        return
    value = len(obs.unconverged) + obs.repair_in_flight
    for entry in obs.unconverged:
        _violate(
            report, "repair_convergence",
            f"view not converged {config.convergence_window:g}s after "
            f"settle: {entry}",
            1.0, 0.0,
        )
    if obs.repair_in_flight:
        _violate(
            report, "repair_convergence",
            f"{obs.repair_in_flight} repair transfers still in flight "
            f"{config.convergence_window:g}s after settle",
            obs.repair_in_flight, 0.0,
        )
    if value:
        report.margins["repair_convergence"] = 0.0
    elif obs.t_converged is None:
        report.margins["repair_convergence"] = 1.0
    else:
        lag = (obs.t_converged - obs.t_settled) / config.convergence_window
        report.margins["repair_convergence"] = _clip(1.0 - lag)


def _check_isolation(obs, config, report) -> None:
    if obs.scenario.tenants < 2:
        report.skipped.append("tenant_isolation")
        return
    from ..tenancy import tenant_of_path

    mismatches = 0
    checked = 0
    for span in obs.fold.reads:
        if span.t1 is None:
            continue
        tenant = span.attrs.get("tenant")
        if tenant is None:
            continue
        checked += 1
        path = str(span.attrs.get("path", ""))
        owner = tenant_of_path(path)
        if owner != tenant:
            mismatches += 1
            _violate(
                report, "tenant_isolation",
                f"span #{span.sid} charged to tenant t{tenant} read "
                f"{path!r}, owned by "
                f"{'no tenant' if owner is None else f't{owner}'}",
                1.0, 0.0,
            )
    if not checked:
        # aborted before any tenant-tagged read completed — nothing to judge
        report.skipped.append("tenant_isolation")
        return
    # margin: how evenly the fault's blast radius lands across tenants
    spread = 0.0
    if obs.slo is not None and obs.slo.tenants:
        fracs = [e.degraded_fraction for e in obs.slo.tenants.values()]
        spread = max(fracs) - min(fracs)
    report.margins["tenant_isolation"] = (
        0.0 if mismatches else _clip(1.0 - spread / config.isolation_ref)
    )
