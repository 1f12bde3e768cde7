"""Scenario executor: one :class:`Scenario` → one :class:`Observation`.

The run phases mirror the hand-written resilience experiments so fuzz
findings transfer to them directly:

1. **warm** — every client reads the full dataset once; its duration
   calibrates the epoch deadline.
2. **inject** — the scenario's fault schedule starts.
3. **measured epochs** — the workload plans run under a deadline
   watchdog; clients that miss it are recorded (and interrupted) as
   hung, never waited on forever.
4. **heal + settle** — run past the last transient fault's heal time,
   force-heal any permanent faults, then wait out every detector
   probation (and a few gossip rounds when membership is on).
5. **recovery epoch** — the same workload once more; its SLO windows
   are what the ``slo_recovery`` invariant inspects.
6. **convergence** — with membership on, wait (bounded) for repair to
   drain and snapshot every client view against ground truth.

Every run gets a :class:`~repro.simcore.EventTrace` (the determinism
fingerprint), a :class:`~repro.obs.SpanRecorder` (per-read byte/retry
accounting), and per-client invariant counters registered as
race-sanitizer cells (``fuzz.reads.n<node>``, or
``fuzz.reads.t<j>.n<node>`` in multi-tenant scenarios) so ``repro fuzz
--races`` extends the ``--races`` guarantee over fuzzed interleavings.

Multi-tenant scenarios (``scenario.tenants > 1``) run one reader unit
per (tenant, client) pair: every unit gets its own fleet client via
``dep.client(node, tenant=j)``, its own namespace's files and plan,
and its own board cell, so tenant isolation holes surface as ordinary
invariant violations.  Single-tenant scenarios keep the exact
pre-tenancy client keys, process names, and cells — their event
fingerprints are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import Allocation
from ..core import HVACDeployment, client_key_order
from ..obs import SLOReport, SpanRecorder, compute_slo
from ..simcore import (
    AllOf,
    AnyOf,
    Environment,
    EventTrace,
    Interrupt,
    RandomStreams,
)
from ..storage import GPFS
from .invariants import InvariantConfig
from .scenario import Scenario

__all__ = ["EpochResult", "Observation", "execute"]

RACE_CELLS = (
    ("fuzz.reads.<label>", ("started", "done"),
     "per-reader invariant counters; the epoch watchdog reads them all "
     "at the deadline"),
)

#: metric counters snapshotted (post-fault deltas) into every observation
_COUNTERS = (
    "client_hits",
    "client_misses",
    "client_retries",
    "client_retry_aborts",
    "client_rpc_timeouts",
    "client_rpc_failures",
    "client_pfs_fallback",
    "client_degraded_reads",
)


@dataclass
class EpochResult:
    """One deadline-supervised workload epoch.

    ``hung_clients`` holds bare node ids in single-tenant runs and
    ``t<j>.n<node>`` labels in multi-tenant runs.
    """

    label: str
    duration: float
    deadline: float
    hung_clients: tuple = ()

    @property
    def hung(self) -> bool:
        return bool(self.hung_clients)


@dataclass
class Observation:
    """Everything the invariant checker needs from one run."""

    scenario: Scenario
    warm_duration: float = 0.0
    epochs: list[EpochResult] = field(default_factory=list)
    aborted: bool = False
    t_fault: float = 0.0
    t_heal: float = 0.0
    t_settled: float = 0.0
    t_converged: float | None = None
    t_end: float = 0.0
    allowed_strikes: int = 0
    reads_planned: int = 0
    spans: SpanRecorder = field(default_factory=SpanRecorder)
    counters: dict[str, int] = field(default_factory=dict)
    #: merged ``(t, owner_client, kind, server_id)`` detector transitions
    detector_transitions: list[tuple] = field(default_factory=list)
    #: merged ``(t, owner_client, sid, old, new, inc, why)`` view log
    membership_transitions: list[tuple] = field(default_factory=list)
    #: human-readable view/ground-truth mismatches at the final snapshot
    unconverged: list[str] = field(default_factory=list)
    repair_in_flight: int = 0
    fingerprint: str = ""
    slo: SLOReport | None = None


@dataclass(frozen=True)
class _Unit:
    """One reader: a (tenant, client) pair with its plan and dataset.

    ``tenant`` is ``None`` in single-tenant scenarios so the client
    keys, process names, and board cells stay byte-identical to the
    pre-tenancy executor (existing corpus fingerprints still hold).
    """

    tenant: int | None
    node: int
    plan: tuple
    files: tuple
    delay: float
    think: float

    @property
    def key(self):
        return self.node if self.tenant is None else (self.node, self.tenant)

    @property
    def label(self) -> str:
        if self.tenant is None:
            return f"n{self.node}"
        return f"t{self.tenant}.n{self.node}"

    @property
    def cell(self) -> str:
        return f"fuzz.reads.{self.label}"

    @property
    def hung_id(self):
        return self.node if self.tenant is None else self.label


class _Board:
    """Per-scenario invariant counters, one sanitizer cell per reader.

    Each cell has a single writer (that unit's reader process); the
    epoch watchdog reads them all at the deadline to name the hung
    clients.  Registering them keeps ``--races`` meaningful over fuzz
    runs: if a refactor ever lets two events touch one unit's counter
    at the same timestamp — or lets a read completion tie with the
    deadline — the sanitizer reports it.
    """

    def __init__(self, env, units):
        self.env = env
        self.cells = {u.key: u.cell for u in units}
        self.started = {u.key: 0 for u in units}
        self.done = {u.key: 0 for u in units}

    def begin_read(self, key) -> None:
        self.env.note_access(self.cells[key], "w")
        self.started[key] += 1

    def end_read(self, key) -> None:
        self.env.note_access(self.cells[key], "w")
        self.done[key] += 1

    def unfinished(self, key, planned: int) -> bool:
        self.env.note_access(self.cells[key], "r")
        return self.done[key] < planned


def _force_heal(dep: HVACDeployment, scenario: Scenario) -> None:
    """Heal permanent faults the injector never will (duration=None)."""
    for ev in scenario.faults:
        if ev.duration is not None or ev.kind == "flap":
            continue
        node = ev.node
        if node is None:
            continue
        if ev.kind == "crash":
            if not all(s.alive for s in dep.servers_on_node(node)):
                dep.recover_node(node)
        elif ev.kind == "hang":
            if any(s.hung for s in dep.servers_on_node(node)):
                dep.unhang_node(node)
        elif ev.kind == "degrade":
            dep.restore_node(node)


def _owner_label(key):
    """Bare node id for classic clients, ``t<j>.n<node>`` for fleet ones."""
    return key if isinstance(key, int) else f"t{key[1]}.n{key[0]}"


def _detector_transitions(dep) -> list[tuple]:
    rows = []
    for key in sorted(dep._clients, key=client_key_order):
        cli = dep._clients[key]
        norm = client_key_order(key)
        for t, kind, sid in cli.detector.transitions:
            rows.append(((t, norm, kind, sid), (t, _owner_label(key), kind, sid)))
    rows.sort(key=lambda r: r[0])
    return [r[1] for r in rows]


def _membership_transitions(dep) -> list[tuple]:
    rows = []
    for key in sorted(dep.views, key=client_key_order):
        norm = client_key_order(key)
        owner = _owner_label(key)
        for t, sid, old, new, inc, why in dep.views[key].transitions:
            rows.append(((t, norm, sid), (t, owner, sid, old, new, inc, why)))
    rows.sort(key=lambda r: r[0])
    return [r[1] for r in rows]


def _view_mismatches(dep) -> list[str]:
    """Client views vs ground truth, post-heal: every healthy server
    must be routable again (the remap/repair story's end state)."""
    out = []
    for node in sorted(dep.views, key=client_key_order):
        view = dep.views[node]
        for server in dep.servers:
            healthy = server.alive and not server.hung
            if healthy and not view.routable(server.server_id):
                out.append(
                    f"client {_owner_label(node)} still routes around "
                    f"healthy server "
                    f"{server.server_id} (state "
                    f"{view.state_of(server.server_id)})"
                )
    return out


def execute(
    scenario: Scenario,
    config: InvariantConfig | None = None,
    trace: EventTrace | None = None,
    sanitizer=None,
) -> Observation:
    """Run one scenario end to end; never raises on scenario behavior
    (hung epochs are recorded and interrupted, not waited out)."""
    config = config or InvariantConfig()
    spec = scenario.spec()
    n_nodes = scenario.n_nodes

    env = Environment()
    env.spans = SpanRecorder()
    if trace is None:
        trace = EventTrace()
    env.observe(trace)
    if sanitizer is not None:
        env.observe(sanitizer)

    alloc = Allocation(
        env, spec, n_nodes=n_nodes,
        rand=RandomStreams(scenario.seed).child("cluster"),
    )
    pfs = GPFS(env, spec.pfs, n_nodes, spec.network.nic_bandwidth)
    dep = HVACDeployment(alloc, pfs, seed=scenario.seed)

    files = scenario.files()
    if dep.repair is not None:
        dep.repair.attach_manifest(files)

    obs = Observation(
        scenario=scenario,
        spans=env.spans,
        allowed_strikes=spec.hvac.rpc_max_retries,
    )
    multi = scenario.tenants > 1
    units: list[_Unit] = []
    for j in range(scenario.tenants):
        twl = scenario.workload_of(j)
        tplans = scenario.plans(tenant=j)
        tfiles = scenario.files(j)
        straggler = twl.clients[-1] if twl.kind == "straggler" else None
        for n in twl.clients:
            units.append(
                _Unit(
                    tenant=j if multi else None,
                    node=n,
                    plan=tuple(tplans[n]),
                    files=tuple(tfiles),
                    delay=twl.straggler_delay if n == straggler else 0.0,
                    think=twl.think if n == straggler else 0.0,
                )
            )
    obs.reads_planned = scenario.epochs * sum(len(u.plan) for u in units)
    board = _Board(env, units)

    sched = None
    if scenario.prefetch:
        from ..prefetch import ClairvoyantPlanner, LookaheadScheduler

        # The full demand order each reader will issue: the warm pass
        # over the dataset, then the measured epochs, then the recovery
        # epoch.  A reader interrupted mid-epoch re-enters off-plan and
        # simply freezes its window (divergence, not a fault).
        plan_entries = {
            u.key: tuple(u.files) + u.plan * (scenario.epochs + 1)
            for u in units
        }
        sched = LookaheadScheduler(dep, ClairvoyantPlanner.from_plans(plan_entries))
        dep.attach_prefetch(sched)
        sched.start()

    def reader(unit, warmup=False):
        cli = dep.client(unit.node, tenant=unit.tenant)
        delay = 0.0 if warmup else unit.delay
        think = 0.0 if warmup else unit.think
        plan = unit.files if warmup else unit.plan
        try:
            if delay > 0.0:
                yield env.timeout(delay)
            for path, size in plan:
                if not warmup:
                    board.begin_read(unit.key)
                yield from cli.read_file(path, size, unit.node)
                if not warmup:
                    board.end_read(unit.key)
                if think > 0.0:
                    yield env.timeout(think)
        except Interrupt:
            return  # deadline watchdog gave up on this epoch

    def warm_epoch() -> float:
        t0 = env.now
        procs = [
            env.process(reader(u, warmup=True), name=f"fuzz.warm.{u.label}")
            for u in units
        ]

        def wait():
            yield AllOf(env, procs)

        env.run(env.process(wait(), name="fuzz.warm"))
        return env.now - t0

    def epoch(label: str, deadline: float) -> EpochResult:
        t0 = env.now
        done_before = dict(board.done)
        procs = {
            u.key: env.process(reader(u), name=f"fuzz.{label}.{u.label}")
            for u in units
        }
        all_done = AllOf(env, list(procs.values()))
        overdue = env.timeout(deadline)
        hung: list = []

        def watchdog():
            yield AnyOf(env, [all_done, overdue])
            for u in units:
                planned = done_before[u.key] + len(u.plan)
                if board.unfinished(u.key, planned):
                    hung.append(u.hung_id)

        env.run(env.process(watchdog(), name=f"fuzz.{label}.watchdog"))
        if hung:
            for u in units:
                if procs[u.key].is_alive:
                    procs[u.key].interrupt("epoch deadline")
            alive = [p for p in procs.values() if p.is_alive]
            if alive:

                def reap():
                    yield AllOf(env, alive)

                env.run(env.process(reap(), name=f"fuzz.{label}.reap"))
        return EpochResult(label, env.now - t0, deadline, tuple(hung))

    # 1: warm (fault-free, so it terminates without supervision)
    obs.warm_duration = warm_epoch()
    deadline = config.deadline_slack + config.deadline_factor * obs.warm_duration

    # 2: inject
    obs.t_fault = env.now
    base_counts = {
        name: dep.metrics.counter(f"hvac.{name}").value for name in _COUNTERS
    }
    dep.inject(scenario.schedule())

    # 3: measured epochs
    for i in range(scenario.epochs):
        result = epoch(f"e{i}", deadline)
        obs.epochs.append(result)
        if result.hung:
            obs.aborted = True
            break

    # 4: heal + settle
    obs.t_heal = obs.t_fault + scenario.heal_horizon()
    if not obs.aborted:
        if obs.t_heal > env.now:
            env.run(until=obs.t_heal)
        _force_heal(dep, scenario)
        settle = obs.t_heal + 2 * spec.hvac.probation_period
        for node in sorted(dep._clients, key=client_key_order):
            det = dep._clients[node].detector
            settle = max(settle, max(det._until, default=0.0))
        if scenario.membership:
            settle += 3 * spec.hvac.gossip_interval + spec.hvac.suspect_to_dead
        if settle > env.now:
            env.run(until=settle + 1e-6)
        obs.t_settled = env.now

        # 5: recovery epoch
        recovery = epoch("recovery", deadline)
        obs.epochs.append(recovery)
        if recovery.hung:
            obs.aborted = True

    # 6: convergence (membership stack only)
    if not obs.aborted and dep.repair is not None:
        conv_deadline = obs.t_settled + config.convergence_window
        while dep.repair.in_flight > 0 and env.now < conv_deadline:
            env.run(until=min(env.now + 1e-3, conv_deadline) + 1e-9)
        if dep.repair.in_flight == 0:
            obs.t_converged = env.now
    if dep.repair is not None:
        obs.repair_in_flight = dep.repair.in_flight
    if scenario.membership and not obs.aborted:
        obs.unconverged = _view_mismatches(dep)

    obs.t_end = env.now
    obs.counters = {
        name: dep.metrics.counter(f"hvac.{name}").value - base_counts[name]
        for name in _COUNTERS
    }
    obs.detector_transitions = _detector_transitions(dep)
    obs.membership_transitions = _membership_transitions(dep)
    if sched is not None:
        sched.stop()
    dep.teardown()

    if obs.t_end > obs.t_fault and not obs.aborted:
        window = (obs.t_end - obs.t_fault) / config.windows
        obs.slo = compute_slo(
            env.spans, window, origin=obs.t_fault, horizon=obs.t_end
        )
    obs.fingerprint = trace.fingerprint
    return obs
