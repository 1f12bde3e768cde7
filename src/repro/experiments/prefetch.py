"""Clairvoyant prefetch experiment: reactive vs look-ahead vs compressed.

The driver behind ``repro prefetch``.  One seeded multi-epoch training
run — every node sweeping its shard of a reshuffled dataset that does
NOT fit the aggregate node-local cache, with a mid-run server crash —
is replayed under three prefetch configurations:

* ``reactive``     — the paper's §IV-C baseline: bulk cache
  pre-population at job start (:class:`~repro.core.CachePrefetcher`)
  racing the epoch-1 demand stream, in placement order, blind to the
  access schedule;
* ``clairvoyant``  — NoPFS-style look-ahead staging: the seeded shuffle
  makes every epoch's access order known in advance, so the
  :class:`~repro.prefetch.LookaheadScheduler` stages exactly the next-k
  files per client, just in time, in access order;
* ``clairvoyant+compressed`` — the same staging over a FanStore-style
  compressed cache tier: residents at ``compression_ratio`` of raw
  size (so the dataset fits), every hit charged a deterministic
  decompression cost.

Reported per mode on the SLO window grid: epoch-1 read time and its
penalty over the steady-state epochs, steady-state p99 and degraded
fraction, PFS bytes moved, cache hit rate, staging/invalidations, and
the decompression CPU budget spent.  The dominance claim mirrors
``repro tenancy``: **clairvoyant strictly beats reactive on epoch-1
read time and steady-state p99, and the compressed tier strictly
reduces PFS bytes at a bounded decompression cost.**
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..cluster import ClusterSpec
from ..core import CachePrefetcher
from ..dl import SyntheticDataset, make_epoch_plan
from ..dl.dataset import DatasetSpec
from ..obs import SLOReport, SpanRecorder, compute_slo
from ..prefetch import ClairvoyantPlanner, LookaheadScheduler
from ..simcore import run_all
from .comparison import ModeComparison, build_deployment, fault_spec

__all__ = [
    "PREFETCH_MODES",
    "PREFETCH_SPEC_OVERRIDES",
    "PrefetchResult",
    "SMOKE",
    "prefetch_comparison",
]

#: the CI-sized run (and a pinned fingerprint scenario); ``repro prefetch
#: --smoke`` caps each argument at this
SMOKE = dict(n_nodes=3, n_files=96, epochs=3, windows=8)

PREFETCH_MODES = ("reactive", "clairvoyant", "clairvoyant+compressed")

#: contention tuning: global LRU so eviction order is schedule-driven,
#: fast first-hand failure detection with a short probation (the crash
#: leg's outage is tens of milliseconds at TESTING scale), and a
#: bounded retry walk so reads degrade to the PFS instead of burning
#: long backoffs against the dead server.
PREFETCH_SPEC_OVERRIDES = dict(
    eviction_policy="lru",
    rpc_max_retries=2,
    rpc_backoff_base=1e-4,
    rpc_backoff_cap=1e-3,
    suspect_after=2,
    probation_period=0.02,
    # High-vnode consistent hashing: at toy file counts the modulo
    # placement can home half the dataset on one server, turning the
    # contention regime into a study of hash luck instead of capacity.
    hash_scheme="consistent",
    consistent_vnodes=512,
)


@dataclass
class ModeOutcome:
    """Everything one prefetch mode's run produced."""

    mode: str
    epoch1_seconds: float = math.nan
    steady_epoch_seconds: float = math.nan
    #: epoch-1 read time over the mean steady-state epoch (>= 1.0; the
    #: cold-cache penalty prefetching is supposed to erase)
    epoch1_penalty: float = math.nan
    steady_p99: float = math.nan
    steady_degraded_fraction: float = 0.0
    total_seconds: float = 0.0
    pfs_bytes: int = 0
    hit_rate: float = 0.0
    files_staged: int = 0
    invalidations: int = 0
    divergences: int = 0
    decompress_seconds: float = 0.0
    slo: SLOReport | None = None


@dataclass
class PrefetchResult(ModeComparison):
    """Three-mode prefetch comparison under contention and a crash."""

    n_nodes: int
    n_files: int
    file_size: int
    epochs: int
    lookahead: int
    compression_ratio: float
    decompress_budget: float
    fault: bool

    columns = ("mode", "epoch1 (s)", "penalty", "steady p99", "degr",
               "PFS B", "hits", "staged", "invalid", "decomp (s)")
    dashboard_title = "steady-state SLO windows (origin = epoch-1 end)"

    @property
    def title(self) -> str:
        return (f"Clairvoyant prefetch ({self.n_nodes} nodes x "
                f"{self.epochs} epochs over {self.n_files}x"
                f"{self.file_size}B, lookahead {self.lookahead}, "
                f"compressed ratio {self.compression_ratio:g}"
                + (", mid-run crash" if self.fault else "") + ")")

    @property
    def claim(self) -> str:
        return ("clairvoyant strictly dominates reactive (epoch-1 read time, "
                "steady p99) and the compressed tier reduces PFS bytes within "
                f"a {self.decompress_budget:g}s decompression budget")

    def row(self, oc: ModeOutcome) -> list:
        return [
            oc.epoch1_seconds,
            f"{oc.epoch1_penalty:.2f}x",
            oc.steady_p99,
            f"{oc.steady_degraded_fraction:.1%}",
            oc.pfs_bytes,
            f"{oc.hit_rate:.1%}",
            oc.files_staged,
            oc.invalidations,
            oc.decompress_seconds,
        ]

    def dominates(self) -> bool:
        """The acceptance predicate: clairvoyant staging strictly beats
        the reactive bulk baseline on epoch-1 read time *and*
        steady-state p99, and the compressed tier strictly reduces PFS
        bytes below both uncompressed modes while spending at most
        ``decompress_budget`` seconds of decompression CPU."""
        reactive = self.outcomes["reactive"]
        clair = self.outcomes["clairvoyant"]
        comp = self.outcomes["clairvoyant+compressed"]
        return (
            clair.epoch1_seconds < reactive.epoch1_seconds
            and clair.steady_p99 < reactive.steady_p99
            and comp.pfs_bytes < clair.pfs_bytes
            and comp.pfs_bytes < reactive.pfs_bytes
            and comp.decompress_seconds <= self.decompress_budget
        )

    def log_lines(self, oc: ModeOutcome) -> list[str]:
        return [
            f"[{w.t0:.9f},{w.t1:.9f}) n={w.n_reads} "
            f"degraded={w.degraded} p99={w.p99:.9f}"
            for w in oc.slo.totals.windows
        ]


def _dataset(n_files: int, file_size: int, seed: int) -> SyntheticDataset:
    """A uniform-size synthetic dataset under the TESTING PFS prefix."""
    spec = DatasetSpec(
        name="prefetch",
        n_train_files=n_files,
        n_valid_files=1,
        mean_file_bytes=float(file_size),
        size_sigma=0.0,
        pfs_dir="/pfs/prefetch",
    )
    return SyntheticDataset(spec, seed=seed)


def _decompress_seconds(dep) -> float:
    total = 0.0
    for server in dep.servers:
        total += dep.metrics.counter(f"{server.cache.name}.decompress_seconds").value
    return total


def _run_mode(
    mode: str,
    spec: ClusterSpec,
    dataset: SyntheticDataset,
    n_nodes: int,
    epochs: int,
    windows: int,
    seed: int,
    fault: bool,
    outage: float,
    trace=None,
) -> ModeOutcome:
    """One multi-epoch training run under one prefetch configuration."""
    oc = ModeOutcome(mode=mode)
    rec = SpanRecorder()
    env, dep, _ = build_deployment(spec, n_nodes, seed, spans=rec, trace=trace)
    m = dep.metrics

    plans = [
        make_epoch_plan(dataset, epoch, n_nodes, shuffle_seed=seed)
        for epoch in range(epochs)
    ]
    scheduler = None
    if mode == "reactive":
        # Bulk pre-population in placement order, racing epoch 1.
        paths = dataset.paths()
        sizes = [dataset.size(i) for i in range(len(dataset))]
        CachePrefetcher(dep, paths, sizes).start()
    else:
        planner = ClairvoyantPlanner.from_epoch_plans(
            dataset, n_nodes, epochs, shuffle_seed=seed
        )
        scheduler = LookaheadScheduler(dep, planner)
        dep.attach_prefetch(scheduler)
        scheduler.start()

    #: node -> epoch -> completion sim time, in read order
    epoch_ends: dict[int, list[float]] = {n: [] for n in range(n_nodes)}
    epoch2_started = env.event()

    def reader(node):
        cli = dep.client(node)
        for epoch in range(epochs):
            if epoch == 1 and node == 0 and not epoch2_started.triggered:
                epoch2_started.succeed()
            for idx in plans[epoch].shards[node].indices:
                i = int(idx)
                yield from cli.read_file(dataset.path(i), dataset.size(i), node)
            epoch_ends[node].append(env.now)

    # Crash target: the node homing the fewest dataset files.  The
    # consistent hash skews badly at toy file counts (one server can
    # home half the dataset); crashing the smallest slice keeps the
    # fault leg about fault *handling*, not about which node the hash
    # happened to favor.  Identical across modes (same placement).
    homed: dict[int, int] = {n: 0 for n in range(n_nodes)}
    for i in range(len(dataset)):
        sid = dep.placement.home(dataset.path(i))
        homed[dep.servers[sid].node_id] += 1
    crash_node = min(range(n_nodes), key=lambda n: (homed[n], n))

    def crasher():
        # Crash once steady state begins; the staged plan slice there
        # is invalidated (staging degrades to the reactive path) and
        # demand reads fail over (strikes -> probation -> PFS) until
        # recovery.
        yield epoch2_started
        dep.fail_node(crash_node)
        yield outage
        dep.recover_node(crash_node)

    t0 = env.now
    procs = [
        env.process(reader(n), name=f"prefetch.rank{n}") for n in range(n_nodes)
    ]
    if fault:
        env.process(crasher(), name="prefetch.crash")
    run_all(env, procs, "prefetch.wait")
    t_end = env.now
    if scheduler is not None:
        scheduler.stop()

    epoch1_end = max(ends[0] for ends in epoch_ends.values())
    oc.epoch1_seconds = epoch1_end - t0
    oc.total_seconds = t_end - t0
    steady = t_end - epoch1_end
    oc.steady_epoch_seconds = steady / (epochs - 1) if epochs > 1 else math.nan
    oc.epoch1_penalty = (
        oc.epoch1_seconds / oc.steady_epoch_seconds
        if epochs > 1 and oc.steady_epoch_seconds > 0
        else math.nan
    )
    window = max(steady / windows, 1e-9)
    oc.slo = compute_slo(rec.fold(), window, origin=epoch1_end, horizon=t_end)
    # The SLO is all this mode keeps of its timeline.  The finished
    # deployment is cyclic and the next mode's run() pauses the
    # collector (INTERNALS §1, "The collector"), so release it here.
    rec.events.clear()
    oc.steady_p99 = oc.slo.totals.p99
    oc.steady_degraded_fraction = oc.slo.totals.degraded_fraction
    oc.pfs_bytes = m.counter("gpfs.read_bytes").value
    oc.hit_rate = dep.hit_rate()
    oc.decompress_seconds = _decompress_seconds(dep)
    if scheduler is not None:
        oc.files_staged = m.counter("prefetch.staged_files").value
        oc.invalidations = len(scheduler.invalidated)
        oc.divergences = m.counter("prefetch.divergences").value
    dep.teardown()
    return oc


def prefetch_comparison(
    n_nodes: int = 4,
    n_files: int = 128,
    file_size: int = 75_000,
    epochs: int = 3,
    windows: int = 12,
    lookahead: int = 8,
    outstanding: int = 2,
    cache_fraction: float = 0.21,
    compression_ratio: float = 0.45,
    decompress_cost_per_byte: float = 2e-9,
    decompress_budget: float = 1.0,
    fault: bool = True,
    outage: float = 0.01,
    spec: ClusterSpec | None = None,
    seed: int = 0,
    trace=None,
) -> PrefetchResult:
    """Run the three prefetch modes through the contention scenario.

    The defaults size the dataset past the fleet's aggregate cache (the
    uncompressed modes thrash every epoch) while the compressed tier's
    ``compression_ratio`` makes it fit — which is the whole FanStore
    trade: decompression CPU for PFS bandwidth.  ``cache_fraction``
    scales every server's cache slice to keep that regime at any node
    count.
    """
    if n_nodes < 2:
        raise ValueError("prefetch_comparison needs >= 2 nodes")
    if n_files < 1:
        raise ValueError("n_files must be >= 1")
    if file_size < 1:
        raise ValueError("file_size must be >= 1")
    if epochs < 2:
        raise ValueError("prefetch_comparison needs >= 2 epochs")
    if not decompress_budget >= 0:  # NaN too
        raise ValueError("decompress_budget must be >= 0")
    overrides = dict(PREFETCH_SPEC_OVERRIDES)
    overrides["cache_fraction"] = cache_fraction
    overrides["prefetch_lookahead"] = lookahead
    overrides["prefetch_outstanding"] = outstanding
    base = fault_spec(spec, **overrides)
    # TESTING's metadata servers (1 ms per op, serial) saturate at toy
    # miss rates, making every mode MDS-bound — in that regime staging
    # the same opens earlier only adds burstiness.  Give the experiment
    # a metadata-capable PFS so misses are bandwidth/latency bound and
    # the comparison measures prefetch policy, not MDS queueing.
    base = replace(
        base, pfs=replace(base.pfs, metadata_ops_per_sec=20_000.0)
    )
    dataset = _dataset(n_files, file_size, seed)
    result = PrefetchResult(
        n_nodes=n_nodes,
        n_files=n_files,
        file_size=file_size,
        epochs=epochs,
        windows=windows,
        lookahead=lookahead,
        compression_ratio=compression_ratio,
        decompress_budget=decompress_budget,
        fault=fault,
    )
    for mode in PREFETCH_MODES:
        mode_spec = base
        if mode == "clairvoyant+compressed":
            mode_spec = base.with_hvac(
                compression_ratio=compression_ratio,
                decompress_cost_per_byte=decompress_cost_per_byte,
            )
        result.outcomes[mode] = _run_mode(
            mode, mode_spec, dataset, n_nodes, epochs, windows,
            seed, fault, outage, trace=trace,
        )
    return result
