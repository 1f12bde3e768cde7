#!/usr/bin/env python3
"""End-to-end benchmark: host seconds per paper result and per simulated read.

Run from the root of a checkout; the source tree is ``src/``.  The
harness starts no threads and runs one worker process at a time.

One run of one workload, the form a regression gate calls; the last line
of stdout is the JSON result:

    python3 benchmarks/e2e/run.py --workload fig8_sweep --seed 0 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, from bare passes plus one
pass under cProfile.

A set: every workload (or those named by ``--workloads``) ``--repeats``
times, round-robin, each run a fresh process with seed ``--seed``; prints
every metric's median and IQR and writes them as JSON:

    python3 benchmarks/e2e/run.py --seed 0 --repeats 5 --out set.json
    python3 benchmarks/e2e/run.py --layers --out layers.json

Two sets agree when every end-to-end median is within its bound:

    python3 benchmarks/e2e/run.py --agree set1.json set2.json

Re-record the checked-in result digests after a deliberate change of
simulated behaviour:

    python3 benchmarks/e2e/run.py --record-digests 32
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import importlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
from speed import MIN_SAMPLES, Speedometer
from suite import WORKLOADS, result_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

#: fresh interpreters whose import time makes up ``setup_s``
IMPORT_SAMPLES = 5
#: a run times at least this many passes, however long they take
MIN_PASSES = 2
#: share of the run's seconds spent on bare passes in a ``--trace 1`` run
TRACE_BARE_SHARE = 1 / 3

# numpy, the one third-party dependency, is imported before the clock
# starts: loading its native libraries does not slow down with the
# reference loop, so it would add noise and no signal about this code
_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "import numpy\n"
    "from speed import Speedometer\n"
    "with Speedometer() as meter:\n"
    "    t0 = time.perf_counter()\n"
    "    for m in sys.argv[1:]:\n"
    "        importlib.import_module(m)\n"
    "    t1 = time.perf_counter()\n"
    "print(meter.seconds(t0, t1))\n"
)


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no source tree at {SRC / 'repro'}; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_seconds(modules: tuple[str, ...]) -> float:
    """Import time of ``modules`` in a fresh interpreter that has already
    imported numpy, at reference speed."""
    path = [str(SRC), str(HERE)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *modules],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


class CallClock:
    """Records when wrapped public callables run.  Nested calls (``scaled``
    constructs a dataset) count once."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self._depth = 0

    def timed(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.intervals.append((t0, time.perf_counter()))
                self._depth -= 1

        return wrapper

    def seconds(self, meter: Speedometer, t0: float, t1: float) -> float:
        """Reference-speed seconds of the recorded calls within [t0, t1]."""
        return sum((meter.seconds(a, b) for a, b in self.intervals if t0 <= a and b <= t1), 0.0)


def setup_clock() -> CallClock:
    """Times the set-up callables: building a storage system and
    materialising a dataset.  It wraps only what the workload imported,
    so it imports nothing itself."""
    clock = CallClock()
    baselines = sys.modules.get("repro.baselines.setups")
    if baselines:
        classes = [baselines.StorageSetup]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if "build" in cls.__dict__:
                cls.build = clock.timed(cls.__dict__["build"])
    dataset = sys.modules.get("repro.dl.dataset")
    if dataset:
        cls = dataset.SyntheticDataset
        cls.scaled = classmethod(clock.timed(cls.__dict__["scaled"].__func__))
        cls.__init__ = clock.timed(cls.__init__)
    return clock


def taint_clock() -> CallClock:
    """Times the taint pass, which runs inside ``lint_tree(taint=True)``,
    if the workload imported it."""
    clock = CallClock()
    taint = sys.modules.get("repro.check.taint")
    if taint:
        taint.build_graph = clock.timed(taint.build_graph)
        taint.taint_violations = clock.timed(taint.taint_violations)
    return clock


class Pass:
    """One call of every part: when each ran, and its result."""

    def __init__(self, parts):
        self.labels = [part.label for part in parts]
        self.spans: list[tuple[float, float]] = []
        self.results = []
        self.error: str | None = None
        try:
            for part in parts:
                t0 = time.perf_counter()
                self.results.append(part.run())
                self.spans.append((t0, time.perf_counter()))
        except Exception:  # noqa: BLE001 -- a failed pass is counted, not fatal
            self.error = traceback.format_exc()
        #: the worker's peak RSS so far, in MB
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    @property
    def ops(self) -> int:
        return sum(r.ops for r in self.results)

    @property
    def start(self) -> float:
        return self.spans[0][0]

    @property
    def end(self) -> float:
        return self.spans[-1][1]


class Checker:
    """Checks each full pass: its ``result_digest`` must equal the
    checked-in digest for this seed (for a seed without one, the run's
    first digest) and its outputs must pass the workload's validation."""

    def __init__(self, workload, seed: int):
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh).get(workload.name, {})
        self.workload = workload
        self.expected = table.get(str(seed if workload.seeded else 0))
        self.checked_in = self.expected is not None
        self.digest: str | None = None

    def __call__(self, done: Pass) -> bool:
        if done.error is None:
            self.digest = result_digest(done.results)
            if self.expected is None:
                self.expected = self.digest
            if self.digest != self.expected:
                done.error = f"result_digest {self.digest} != expected {self.expected}"
            else:
                try:
                    self.workload.validate(done.results)
                except ValueError as err:
                    done.error = f"invalid outputs: {err}"
        if done.error is not None:
            print(f"FAILED pass: {done.error}", file=sys.stderr)
        return done.error is None


class Tally:
    """Ops attempted and failed over a run's checked passes."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.good: list[Pass] = []
        self.attempted = 0
        self.failed = 0
        self.ops_per_pass = 0

    def add(self, done: Pass) -> bool:
        ok = self.checker(done)
        if ok:
            self.ops_per_pass = done.ops
            self.good.append(done)
        ops = self.ops_per_pass or 1
        self.attempted += ops
        self.failed += 0 if ok else ops
        return ok

    def until(self, parts, seconds: float, min_passes: int) -> None:
        """Run passes until ``seconds`` are used, stopping before a pass
        that would run more than half over."""
        start = time.perf_counter()
        spent: list[float] = []
        while True:
            t0 = time.perf_counter()
            self.add(Pass(parts))
            spent.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(spent) >= min_passes and elapsed + statistics.median(spent) / 2 >= seconds:
                return

    def part_seconds(self, meter: Speedometer) -> dict[str, float]:
        """Each part's median reference-speed seconds over the good passes."""
        columns = zip(*([meter.seconds(a, b) for a, b in p.spans] for p in self.good))
        return {label: statistics.median(c) for label, c in zip(self.good[0].labels, columns)}


def _prepare(workload, seed: int):
    for module in workload.modules:
        importlib.import_module(module)
    # first calls pay lazy imports and cold caches; a small pass takes them
    Pass(workload.parts(seed, True))
    return workload.parts(seed, False)


def measure(workload, seed: int, seconds: float) -> tuple[dict, Tally]:
    """The end-to-end metrics of one run."""
    imports = [import_seconds(workload.modules) for _ in range(IMPORT_SAMPLES)]
    parts = _prepare(workload, seed)
    clock = setup_clock()
    tally = Tally(Checker(workload, seed))
    with Speedometer() as meter:
        tally.until(parts, seconds, MIN_PASSES)
    if not tally.good:
        return {}, tally
    wall = sum(tally.part_seconds(meter).values())
    in_setup = [clock.seconds(meter, p.start, p.end) for p in tally.good]
    return {
        "wall_s": wall,
        "us_per_op": wall / tally.ops_per_pass * 1e6,
        "setup_s": statistics.median(imports) + statistics.median(in_setup),
        # later passes add fragmentation, and a run's pass count varies
        "peak_rss_mb": tally.good[0].peak_rss_mb,
    }, tally


def measure_layers(workload, seed: int, seconds: float) -> tuple[dict, Tally]:
    """The per-layer metrics of one run: bare passes, then one pass under
    cProfile."""
    parts = _prepare(workload, seed)
    taint = taint_clock()
    tally = Tally(Checker(workload, seed))
    with Speedometer() as meter:
        tally.until(parts, seconds * TRACE_BARE_SHARE, 1)
    if not tally.good:
        return {}, tally
    bare = tally.part_seconds(meter)
    taint_s = statistics.median(taint.seconds(meter, p.start, p.end) for p in tally.good)

    # the sampler would be profiled too: sample the speed after the pass
    profiler = cProfile.Profile()
    profiler.enable()
    done = Pass(parts)
    profiler.disable()
    meter.sample(MIN_SAMPLES)
    if not tally.add(done):
        return {}, tally
    profiled = meter.seconds(done.start, done.end)
    metrics = layers.layer_split(
        pstats.Stats(profiler).stats, SRC / "repro", profiled / (done.end - done.start)
    )
    metrics["profile.overhead"] = profiled / sum(bare.values())
    events = metrics["simcore.engine.events"]
    metrics["simcore.engine.us_per_event"] = sum(bare.values()) / events * 1e6 if events else 0.0
    hit_rates = [h for r in done.results for h in r.hit_rates]
    metrics["core.hit_ratio"] = statistics.fmean(hit_rates) if hit_rates else 0.0
    metrics["check.lint_s"] = bare.get("lint", 0.0) - taint_s
    metrics["check.taint_s"] = taint_s
    metrics["check.perf_s"] = bare.get("perf", 0.0)
    metrics["check.cells_s"] = bare.get("cells", 0.0)
    return metrics, tally


def single_run(name: str, seed: int, seconds: float, trace: int) -> int:
    spec = _spec()
    workload = WORKLOADS[name]
    if trace:
        metrics, tally = measure_layers(workload, seed, seconds)
        wanted = spec["per_layer"]
    else:
        metrics, tally = measure(workload, seed, seconds)
        wanted = spec["end_to_end"]
    checker = tally.checker
    correct = tally.failed == 0 and bool(tally.good)
    origin = "checked in" if checker.checked_in else "no checked-in digest; same-seed passes compared"
    print(
        f"{name} seed={seed} trace={trace}: {len(tally.good)} good pass(es), "
        f"{tally.ops_per_pass} ops/pass, result_digest {checker.digest} ({origin})"
    )
    result = {}
    if correct:
        result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
        for metric, entry in result.items():
            print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }))
    return 0 if correct else 1


# -- sets and agreement -----------------------------------------------------


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run_set(names: list[str], seed: int, repeats: int, seconds: int, trace: int, out: str | None) -> int:
    metrics_spec = _spec()["per_layer" if trace else "end_to_end"]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    rc = 0
    for rep in range(repeats):
        for name in names:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode or not result:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"run {rep} {name}: FAILED (exit {proc.returncode})", flush=True)
                rc = 1
                continue
            runs[name].append(result)
            print(f"run {rep} {name}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:4]
            ), flush=True)

    summary = {
        name: {
            m["name"]: dict(summarize([r["metrics"][m["name"]]["value"] for r in results]), unit=m["unit"])
            for m in metrics_spec
        }
        for name, results in runs.items()
        if results
    }
    print(f"\n{'metric':<34}" + "".join(f"{n:>22}" for n in summary))
    for m in metrics_spec:
        cells = "".join(
            f"{s[m['name']]['median']:>13.5g} ±{s[m['name']]['iqr_share']:>6.1%}" for s in summary.values()
        )
        print(f"{m['name'] + ' (' + m['unit'] + ')':<34}{cells}")
    if out:
        record = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "seed": seed, "repeats": repeats, "seconds": seconds, "trace": trace,
            "attempted": sum(r["attempted"] for rs in runs.values() for r in rs),
            "failed": sum(r["failed"] for rs in runs.values() for r in rs),
            "summary": summary,
        }
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return rc


def agree(path_a: str, path_b: str, out: str | None = None) -> int:
    """Exit 1 if any end-to-end median of set B differs from set A's by
    more than the metric's bound, in either direction."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)["summary"]
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)["summary"]
    if set(a) != set(b):
        print(f"the sets cover different workloads: {sorted(a)} vs {sorted(b)}")
        return 1
    rows = []
    for name in a:
        for m in _spec()["end_to_end"]:
            ma, mb = a[name][m["name"]]["median"], b[name][m["name"]]["median"]
            diff = (mb - ma) / ma
            rows.append({
                "workload": name, "metric": m["name"], "a": ma, "b": mb,
                "diff": diff, "bound": m["bound"], "ok": abs(diff) <= m["bound"],
            })
            print(
                f"{name:<16} {m['name']:<12} {ma:>12.5g} {mb:>12.5g} {diff:>+8.2%}"
                f"  bound {m['bound']:.0%}  {'ok' if rows[-1]['ok'] else 'OUTSIDE'}"
            )
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["ok"] for r in rows) else 1


def record_digests(n_seeds: int) -> int:
    table = {}
    for workload in WORKLOADS.values():
        _prepare(workload, 0)
        table[workload.name] = {}
        for seed in range(n_seeds) if workload.seeded else (0,):
            done = Pass(workload.parts(seed, False))
            if done.error:
                print(done.error, file=sys.stderr)
                return 1
            workload.validate(done.results)
            table[workload.name][str(seed)] = result_digest(done.results)
            print(f"{workload.name} seed={seed}: {table[workload.name][str(seed)]}", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one run of this workload")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), help="the workloads of a set")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true", help="a set of --trace 1 runs, one per workload")
    parser.add_argument("--repeats", type=int, help="runs per workload in a set (default 5, 1 with --layers)")
    parser.add_argument("--out", help="write the set's (or the agreement's) JSON here")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"))
    parser.add_argument("--record-digests", type=int, metavar="SEEDS")
    args = parser.parse_args(argv)

    if args.agree:
        return agree(*args.agree, out=args.out)
    _require_source()
    if args.record_digests:
        return record_digests(args.record_digests)
    seconds = args.seconds or _spec()["run_seconds"]
    trace = 1 if args.layers else args.trace
    if args.workload:
        return single_run(args.workload, args.seed, seconds, trace)
    repeats = args.repeats or (1 if args.layers else 5)
    return run_set(args.workloads or list(WORKLOADS), args.seed, repeats, seconds, trace, args.out)


if __name__ == "__main__":
    sys.exit(main())
