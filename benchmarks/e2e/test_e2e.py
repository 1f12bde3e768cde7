"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import cProfile
import json
import os
import pstats
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import run
import speed
from suite import WORKLOADS, result_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PACKAGE = ROOT / "src" / "repro"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _profiled_small_pass(name):
    profiler = cProfile.Profile()
    profiler.enable()
    done = run.Pass(WORKLOADS[name].parts(0, True))
    profiler.disable()
    assert done.error is None, done.error
    return done, layers.layer_split(pstats.Stats(profiler).stats, PACKAGE)


def _single_run(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180,
    )


def test_every_module_maps_to_one_layer():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 100
    for path in modules:
        assert layers.layer_of(str(path.relative_to(PACKAGE))) in layers.LAYERS


def test_unmapped_module_is_an_error():
    with pytest.raises(ValueError):
        layers.layer_of("newpackage/module.py")


def test_layer_shares_sum_to_one():
    _, metrics = _profiled_small_pass("fig8_sweep")
    assert sum(metrics[f"{layer}.share"] for layer in layers.LAYERS) == pytest.approx(1, abs=0.01)
    assert metrics["simcore.engine.events"] > 0
    assert metrics["storage.pfs_opens"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_pass_repeats_exactly(name):
    first, a = _profiled_small_pass(name)
    second, b = _profiled_small_pass(name)
    assert result_digest(first.results) == result_digest(second.results)
    assert {k: a[k] for k in layers.COUNTS} == {k: b[k] for k in layers.COUNTS}


def test_digest_mismatch_fails_the_pass_and_its_ops():
    workload = WORKLOADS["gpfs_metadata"]
    tally = run.Tally(run.Checker(workload, 0))
    tally.checker.expected = "0" * 64
    assert not tally.add(run.Pass(workload.parts(0, True)))
    assert tally.failed == tally.attempted == 1
    assert not tally.good


def test_checked_in_digests_cover_every_workload():
    table = json.loads(run.DIGESTS.read_text())
    assert set(table) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert "0" in table[name]
        assert (len(table[name]) > 1) == workload.seeded


def test_benchmark_json_lists_the_suite():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_names_every_metric_with_its_unit(trace, kind):
    proc = _single_run(
        ROOT, "--workload", "gpfs_metadata", "--seed", "3", "--seconds", "1", "--trace", str(trace)
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _single_run(
        tmp_path, "--workload", "fig8_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _set_file(path, medians):
    summary = {"w": {name: {"median": value} for name, value in medians.items()}}
    path.write_text(json.dumps({"summary": summary}))
    return str(path)


def test_agree_applies_each_bound(tmp_path):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    a = _set_file(tmp_path / "a.json", dict.fromkeys(bounds, 1.0))
    inside = {name: 1 + 0.9 * bound for name, bound in bounds.items()}
    assert run.agree(a, _set_file(tmp_path / "b.json", inside)) == 0
    outside = dict(inside, wall_s=1 - 1.1 * bounds["wall_s"])
    assert run.agree(a, _set_file(tmp_path / "c.json", outside)) == 1


def test_call_clock_counts_nested_calls_once():
    clock = run.CallClock()
    inner = clock.timed(lambda: None)
    outer = clock.timed(lambda: inner())
    outer()
    inner()
    assert len(clock.intervals) == 2


def _busy(seconds):
    loop = speed.ReferenceLoop()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        loop()


def test_speedometer_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer():
        _busy(0.05)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speedometer_scales_with_the_work_done():
    loop = speed.ReferenceLoop()

    def timed(n):
        t0 = time.perf_counter()
        for _ in range(n):
            loop()
        return t0, time.perf_counter()

    ratios = []
    with speed.Speedometer() as meter:
        for _ in range(5):
            one, two = timed(100), timed(200)
            ratios.append(meter.seconds(*two) / meter.seconds(*one))
    assert 1.6 < statistics.median(ratios) < 2.5
