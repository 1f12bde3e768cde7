"""Command-line interface: regenerate the paper's figures and run
ad-hoc simulations without pytest.

    python -m repro fig9 --nodes 2 8 32
    python -m repro mdtest --file-size 32768 --nodes 1 4 16
    python -m repro train --system hvac4 --model resnet50 --nodes 16
    python -m repro info

One rule for bad input: a command whose arguments the library rejects
(a ``ValueError``: a size below one, an unknown system, a path that
checks nothing) prints ``repro <command>: error: <message>`` to stderr
and exits 2.  :func:`main` holds the only handler.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Sequence

from .analysis import format_kv, format_series
from .cluster import SUMMIT
from .dl import ALL_MODELS, COSMOUNIVERSE, DEEPCAM_CLIMATE, IMAGENET21K
from .experiments import Scale, membership, prefetch, run_training, slo_exp, tenancy
from .experiments.accuracy_exp import accuracy_comparison
from .experiments.load_balance import load_balance
from .experiments.mdtest_exp import mdtest_scaling, mdtest_scaling_analytic
from .experiments.report import generate_report
from .experiments.resilience import fault_matrix, resilience_sweep
from .experiments.scaling import (
    node_scaling,
    node_scaling_analytic,
    normalized_to_gpfs,
    overhead_vs_xfs,
)

__all__ = ["main"]

#: what ``repro check`` runs when ``--passes`` is not given (CI's gate);
#: ``races`` is opt-in
DEFAULT_PASSES = "lint,taint,perf,cells,determinism"

_MODEL_DATASET = {
    "resnet50": IMAGENET21K,
    "tresnet_m": IMAGENET21K,
    "cosmoflow": COSMOUNIVERSE,
    "deepcam": DEEPCAM_CLIMATE,
}


def _scale(args: argparse.Namespace) -> Scale:
    """The run's Scale from the scale flags."""
    return Scale(
        files_per_rank=args.files_per_rank,
        sim_batch_size=8,
        repetitions=args.repetitions,
        procs_per_node=args.procs_per_node,
    )


def _add_scale_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--files-per-rank", type=int, default=8,
                   help="sampled files per rank (event-count knob)")
    p.add_argument("--procs-per-node", type=int, default=4)
    p.add_argument("--repetitions", type=int, default=1)


def cmd_info(args: argparse.Namespace) -> int:
    spec = SUMMIT
    print(format_kv({
        "cluster": spec.name,
        "total nodes": spec.total_nodes,
        "GPFS aggregate bandwidth (TB/s)": spec.pfs.aggregate_bandwidth / 1e12,
        "GPFS metadata ceiling (tx/s)": spec.pfs.aggregate_metadata_ops
        / (spec.pfs.ops_per_open + spec.pfs.ops_per_close),
        "NVMe per node (GB/s)": spec.node.nvme.read_bandwidth / 1e9,
        "NVMe capacity per node (TB)": spec.node.nvme.capacity_bytes / 1e12,
        "NIC per node (GB/s)": spec.network.nic_bandwidth / 1e9,
        "HVAC mover overhead (us)": spec.hvac.server_request_overhead * 1e6,
    }, title="Calibrated Summit model (cluster/specs.py)"))
    print()
    print(format_kv(
        {name: f"{m.samples_per_sec_per_gpu:.0f} samples/s/GPU, "
               f"{m.n_parameters:,} params" for name, m in ALL_MODELS.items()},
        title="Workload models",
    ))
    return 0


def cmd_mdtest(args: argparse.Namespace) -> int:
    res = mdtest_scaling(
        args.file_size, args.nodes,
        ranks_per_node=args.procs_per_node,
        files_per_rank=args.files_per_rank,
    )
    print(res.render())
    if args.analytic:
        print()
        print(mdtest_scaling_analytic(
            args.file_size, [1, 4, 16, 64, 256, 1024, 4096]
        ).render() + "   [analytic]")
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    model = ALL_MODELS[args.model]
    dataset = _MODEL_DATASET[args.model]
    res = node_scaling(
        model, dataset, args.nodes, _scale(args),
        systems=tuple(args.systems), total_epochs=args.epochs,
    )
    print(res.render())
    return 0


def cmd_fig9(args: argparse.Namespace) -> int:
    model = ALL_MODELS[args.model]
    dataset = _MODEL_DATASET[args.model]
    res = node_scaling(
        model, dataset, args.nodes, _scale(args), total_epochs=args.epochs
    )
    print(format_series("nodes", res.node_counts, normalized_to_gpfs(res),
                        title="Fig 9a: % improvement over GPFS"))
    print()
    print(format_series("nodes", res.node_counts, overhead_vs_xfs(res),
                        title="Fig 9b: % overhead vs XFS-on-NVMe"))
    if args.analytic:
        full = node_scaling_analytic(
            model, dataset, [1, 16, 64, 256, 512, 1024], total_epochs=args.epochs
        )
        print()
        print(format_series("nodes", full.node_counts, normalized_to_gpfs(full),
                            title="Fig 9a [analytic, full sweep]"))
    return 0


def cmd_fig14(args: argparse.Namespace) -> int:
    print(accuracy_comparison(n_epochs=args.epochs).render())
    return 0


def cmd_fig15(args: argparse.Namespace) -> int:
    print(load_balance(args.nodes, n_files=args.files).render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    text = generate_report(
        scale=_scale(args),
        node_counts=args.nodes,
        include_des=not args.analytic_only,
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    model = ALL_MODELS[args.model]
    dataset = _MODEL_DATASET[args.model]
    res = run_training(args.system, model, dataset, args.nodes, _scale(args))
    print(format_kv({
        "system": res.system_label,
        "config": res.config_label,
        "epoch-1 (s)": res.first_epoch,
        "steady epoch (s)": res.best_random_epoch,
        f"extrapolated total, {args.epochs} epochs (min)":
            res.extrapolate_total(args.epochs) / 60,
        "cache hit rate": res.cache_hit_rate,
    }, title="Training simulation"))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .check import run_check

    return run_check(
        paths=args.paths or None,
        passes=args.passes.split(","),
        seed=args.seed,
        n_nodes=args.nodes,
        files_per_rank=args.files_per_rank,
        block=args.block,
        races_output=args.races_output,
        cells_output=args.cells_output,
    )


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import InvariantConfig, replay_case, run_campaign
    from .fuzz.campaign import render_violations

    if args.replay:
        report, expected, scenario = replay_case(
            args.replay, original=args.original
        )
        which = "original" if args.original else "shrunk"
        print(f"replayed {which} scenario "
              f"({scenario.n_nodes} nodes, {len(scenario.faults)} faults, "
              f"workload {scenario.workload.kind})")
        print(f"expected violations: {', '.join(expected) or '(none)'}")
        print("observed:")
        print(render_violations(report.violations))
        if set(expected) <= set(report.violated):
            print("reproduced")
            return 0
        print("NOT reproduced")
        return 2

    sanitizer = None
    if args.races:
        from .check.races import RaceSanitizer

        sanitizer = RaceSanitizer()
    result = run_campaign(
        runs=args.runs,
        seed=args.seed,
        corpus_dir=args.corpus_dir or None,
        time_budget=args.time_budget,
        config=InvariantConfig(determinism_every=args.determinism_every),
        sanitizer=sanitizer,
    )
    print(result.render())
    for path in result.case_paths:
        print(f"wrote {path}")
    rc = 0
    if sanitizer is not None:
        sanitizer.finish()
        if sanitizer.reports:
            print(f"\n{len(sanitizer.reports)} same-timestamp race(s):")
            for rep in sanitizer.reports:
                print(rep.describe())
            rc = 1
        else:
            print("\nrace sanitizer: clean")
    return 1 if result.cases else rc


def cmd_resilience(args: argparse.Namespace) -> int:
    sweep = resilience_sweep(
        fail_fractions=args.fractions,
        n_nodes=args.nodes,
        n_files=args.files,
        seed=args.seed,
    )
    print(sweep.render())
    print()
    matrix = fault_matrix(
        n_nodes=min(args.nodes, 4), n_files=args.files, seed=args.seed
    )
    print(matrix.render())
    return 0


def _smoke_cap(value, cap):
    """``--smoke``'s value for one experiment argument: the cap itself
    where the command has no flag for it, a list cut to ``len(cap)``
    entries, else the smaller of value and cap."""
    if value is None:
        return cap
    if isinstance(value, list):
        return value[:len(cap)]
    return min(value, cap)


def _run_comparison(experiment, smoke: dict, gated: bool, args) -> int:
    """The mode-comparison commands: run ``experiment`` with every
    command flag as a keyword argument (capped by ``smoke`` under
    ``--smoke``), print the report and write the artifacts.  Exits 1
    when ``gated`` and ``dominates()`` fails."""
    kwargs = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "func", "smoke", "output_dir")
    }
    if args.smoke:
        for key, cap in smoke.items():
            kwargs[key] = _smoke_cap(kwargs.get(key), cap)
    result = experiment(**kwargs)
    print(result.render())
    if args.output_dir:
        paths = result.write_artifacts(args.output_dir)
        print()
        for name, path in paths.items():
            print(f"wrote {name}: {path}")
    return 1 if gated and not result.dominates() else 0


def _add_comparison(sub, name: str, experiment, help_text: str,
                    smoke: dict, gated: bool) -> argparse.ArgumentParser:
    """A mode-comparison subcommand with the shared flags declared; the
    caller adds the command's own flags, each with ``dest`` set to the
    experiment's parameter name."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--windows", type=int, default=12,
                   help="SLO window count across the measured range")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default="",
                   help="also write the report and its logs here")
    p.add_argument("--smoke", action="store_true",
                   help="tiny fast run (CI artifact smoke test)")
    p.set_defaults(func=partial(_run_comparison, experiment, smoke, gated))
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HVAC reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="show the calibrated system model")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("mdtest", help="Figs 3-4: MDTest sweep")
    p.add_argument("--file-size", type=int, default=32 * 1024)
    p.add_argument("--nodes", type=int, nargs="+", default=[1, 4, 16])
    p.add_argument("--analytic", action="store_true")
    _add_scale_args(p)
    p.set_defaults(func=cmd_mdtest)

    p = sub.add_parser("fig8", help="Fig 8: training-time node sweep")
    p.add_argument("--model", choices=sorted(ALL_MODELS), default="resnet50")
    p.add_argument("--nodes", type=int, nargs="+", default=[2, 8])
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--systems", nargs="+",
                   default=["gpfs", "hvac1", "hvac4", "xfs"])
    _add_scale_args(p)
    p.set_defaults(func=cmd_fig8)

    p = sub.add_parser("fig9", help="Fig 9: normalized improvement/overhead")
    p.add_argument("--model", choices=sorted(ALL_MODELS), default="resnet50")
    p.add_argument("--nodes", type=int, nargs="+", default=[2, 8])
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--analytic", action="store_true")
    _add_scale_args(p)
    p.set_defaults(func=cmd_fig9)

    p = sub.add_parser("fig14", help="Fig 14: accuracy comparison")
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(func=cmd_fig14)

    p = sub.add_parser("fig15", help="Fig 15: load balance")
    p.add_argument("--nodes", type=int, nargs="+", default=[32, 128, 512])
    p.add_argument("--files", type=int, default=50_000)
    p.set_defaults(func=cmd_fig15)

    p = sub.add_parser("report", help="full evaluation report (all figures)")
    p.add_argument("--nodes", type=int, nargs="+", default=[2, 8])
    p.add_argument("--analytic-only", action="store_true",
                   help="skip the DES; instant analytic-only report")
    p.add_argument("--output", default="",
                   help="write to a file instead of stdout")
    _add_scale_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "resilience",
        help="§III-H: epoch time vs failed servers + per-fault-kind matrix",
    )
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--files", type=int, default=48,
                   help="files per node per epoch")
    p.add_argument("--fractions", type=float, nargs="+",
                   default=[0.0, 0.25, 0.5],
                   help="fractions of nodes to crash")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_resilience)

    p = _add_comparison(
        sub, "slo", slo_exp.slo_scenario,
        "SLO dashboard: span-level telemetry for a crash-at-t "
        "scenario vs its no-fault baseline (+ JSONL span timelines)",
        smoke=slo_exp.SMOKE,
        gated=False,
    )
    p.add_argument("--nodes", dest="n_nodes", type=int, default=4)
    p.add_argument("--files", dest="n_files", type=int, default=32,
                   help="files per node per epoch")
    p.add_argument("--fault-time", type=float, default=0.002,
                   help="crash lands this many seconds into the epoch")
    p.add_argument("--fault-node", type=int, default=1)

    p = _add_comparison(
        sub, "membership", membership.membership_comparison,
        "gossip membership, fault-aware remapping, peer repair: "
        "four failover modes on one crash/recover scenario "
        "+ repair-bandwidth sweep",
        smoke=membership.SMOKE,
        gated=False,
    )
    p.add_argument("--nodes", dest="n_nodes", type=int, default=6)
    p.add_argument("--files", dest="n_files", type=int, default=36,
                   help="files per node per epoch")
    p.add_argument("--victims", type=int, nargs="+", default=[1, 2],
                   help="nodes crashed as a correlated burst (adjacent "
                   "pair = whole replica sets lost)")
    p.add_argument("--outage-epochs", type=int, default=2,
                   help="measured epochs while the victims are down")
    p.add_argument("--repair-bandwidths", type=float, nargs="+",
                   default=[1e6, 1e7, 1e8, 0.0],
                   help="repair throttle sweep, bytes/s (0 = unthrottled)")

    p = _add_comparison(
        sub, "tenancy", tenancy.tenancy_isolation,
        "multi-tenant fleet: hot-storm isolation under partition-"
        "vs-share cache policies + admission-controlled arrival mix "
        "(exit 0 iff weighted-fair dominates shared LRU for the victim)",
        smoke=tenancy.SMOKE,
        gated=True,
    )
    p.add_argument("--nodes", dest="n_nodes", type=int, default=4)
    p.add_argument("--victim-files", type=int, default=40,
                   help="victim tenant dataset size (files)")
    p.add_argument("--aggressor-files", type=int, default=400,
                   help="aggressor tenant dataset size (files); sized "
                   "past the aggregate cache so the shared pool thrashes")
    p.add_argument("--file-size", type=int, default=200_000)
    p.add_argument("--storm-passes", type=int, default=2,
                   help="measured passes both tenants make during the storm")
    p.add_argument("--jobs", dest="n_jobs", type=int, default=8,
                   help="arrival-mix jobs for the admission demo")
    p.add_argument("--think", type=float, default=0.08,
                   help="victim service pacing (s); must exceed the shared "
                   "pool's eviction horizon for the storm to bite")
    p.add_argument("--streams", type=int, default=4,
                   help="parallel aggressor sweep streams per node")

    p = _add_comparison(
        sub, "prefetch", prefetch.prefetch_comparison,
        "clairvoyant prefetch: reactive bulk vs look-ahead staging "
        "vs compressed tier under contention + a mid-run crash (exit 0 "
        "iff clairvoyant dominates reactive on epoch-1 time and steady "
        "p99, and compression cuts PFS bytes within the CPU budget)",
        smoke=prefetch.SMOKE,
        gated=True,
    )
    p.add_argument("--nodes", dest="n_nodes", type=int, default=4)
    p.add_argument("--files", dest="n_files", type=int, default=128,
                   help="dataset size (files); sized past the aggregate "
                   "cache so the uncompressed modes thrash")
    p.add_argument("--file-size", type=int, default=75_000)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--lookahead", type=int, default=8,
                   help="files staged ahead of each client's cursor")
    p.add_argument("--outstanding", type=int, default=2,
                   help="staged fetches in flight per server")
    p.add_argument("--cache-fraction", type=float, default=0.21,
                   help="per-node NVMe share given to the cache")
    p.add_argument("--compression-ratio", type=float, default=0.45,
                   help="stored/raw byte ratio of the compressed tier")
    p.add_argument("--decompress-cost", dest="decompress_cost_per_byte",
                   type=float, default=2e-9,
                   help="sim-seconds of decompression per raw byte on hit")
    p.add_argument("--decompress-budget", type=float, default=1.0,
                   help="max total decompression seconds for dominance")
    p.add_argument("--no-fault", dest="fault", action="store_false",
                   help="skip the mid-run crash/recover leg")

    p = sub.add_parser(
        "fuzz",
        help="scenario fuzzer: seeded campaigns over random topologies/"
        "faults/workloads, six resilience invariants, autopilot "
        "near-violation bias, minimized JSON repro cases",
    )
    p.add_argument("--runs", type=int, default=25,
                   help="scenarios to execute (>= 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (generator + autopilot)")
    p.add_argument("--time-budget", type=float, default=0.0,
                   help="stop after this many wall seconds (>= 0; 0 = no limit)")
    p.add_argument("--corpus-dir", default="",
                   help="write shrunk JSON case files here on violation")
    p.add_argument("--replay", metavar="CASE",
                   help="re-run one case file instead of a campaign "
                   "(exit 0 iff the recorded violations reproduce)")
    p.add_argument("--original", action="store_true",
                   help="with --replay: run the original scenario, "
                   "not the shrunk core")
    p.add_argument("--determinism-every", type=int, default=4,
                   help="double-run the fingerprint check every N-th "
                   "scenario (0 = never; negative is an error)")
    p.add_argument("--races", action="store_true",
                   help="attach the race sanitizer across all runs")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "check",
        help="determinism & sim-safety analyzer: SIM lint rules + "
        "same-seed double-run event-stream fingerprint comparison",
    )
    p.add_argument("paths", nargs="*",
                   help="files/dirs to lint (default: the installed repro tree)")
    p.add_argument("--passes", default=DEFAULT_PASSES,
                   help="comma-separated list of lint, taint (lint + SIM011), "
                   "perf, cells, determinism, races; default: %(default)s")
    p.add_argument("--races-output", metavar="FILE",
                   help="write race reports (or a clean marker) to FILE")
    p.add_argument("--cells-output", metavar="FILE",
                   help="write the RACE report (or a clean marker) to FILE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=2,
                   help="nodes in the determinism-check experiment")
    p.add_argument("--files-per-rank", type=int, default=4)
    p.add_argument("--block", type=int, default=2048,
                   help="fingerprint checkpoint interval (bisection grain)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("train", help="one training simulation")
    p.add_argument("--system", default="hvac1",
                   help="gpfs | hvac1 | hvac2 | hvac4 | xfs")
    p.add_argument("--model", choices=sorted(ALL_MODELS), default="resnet50")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--epochs", type=int, default=10)
    _add_scale_args(p)
    p.set_defaults(func=cmd_train)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
