"""Event-stream fingerprinting, the divergence bisector, and the
double-run determinism guarantee on a real experiment."""

import hashlib
import random

import pytest

from repro.check import (
    find_first_divergence,
    fingerprint_run,
    run_determinism,
)
from repro.check.divergence import _divergent_block
from repro.cli import main
from repro.dl import IMAGENET21K, ALL_MODELS
from repro.experiments import Scale, run_training
from repro.simcore import Environment, EventRecord, EventTrace


def simple_run(delays):
    """A trace runnable: one process yielding the given timeouts."""

    def run(trace):
        env = Environment()
        env.observe(trace)

        def proc():
            for d in delays:
                yield env.timeout(d)

        env.process(proc(), name="p")
        env.run()

    return run


class TestEventTrace:
    def test_identical_runs_identical_fingerprints(self):
        a = fingerprint_run(simple_run([1.0, 2.0, 3.0]))
        b = fingerprint_run(simple_run([1.0, 2.0, 3.0]))
        assert a.count == b.count > 0
        assert a.fingerprint == b.fingerprint

    def test_different_runs_different_fingerprints(self):
        a = fingerprint_run(simple_run([1.0, 2.0, 3.0]))
        b = fingerprint_run(simple_run([1.0, 2.5, 3.0]))
        assert a.fingerprint != b.fingerprint

    def test_checkpoints_and_records(self):
        trace = EventTrace(checkpoint_every=2, keep_all=True)
        simple_run([1.0, 2.0, 3.0])(trace)
        assert len(trace.records) == trace.count
        assert len(trace.checkpoints) == trace.count // 2
        # records carry the fired order and the process label
        assert [r.index for r in trace.records] == list(range(trace.count))
        assert any(r.label == "Process:p" for r in trace.records)
        assert trace.records[0].time <= trace.records[-1].time

    def test_keep_window(self):
        trace = EventTrace(keep_window=(1, 3))
        simple_run([1.0, 2.0, 3.0])(trace)
        assert [r.index for r in trace.records] == [1, 2]

    def test_detach(self):
        env = Environment()
        trace = EventTrace()
        env.observe(trace)
        env.unobserve(trace)
        env.timeout(1.0)
        env.run()
        assert trace.count == 0


class ReferenceTrace:
    """The unbuffered fold: one hash ``update`` per event, and the
    keep/checkpoint tests made on every event.  :class:`EventTrace` must
    produce the same bytes."""

    def __init__(self, checkpoint_every=0, keep_window=None, keep_all=False):
        self.checkpoint_every = checkpoint_every
        self.keep_window = keep_window
        self.keep_all = keep_all
        self.count = 0
        self.checkpoints = []
        self.records = []
        self._h = hashlib.blake2b(digest_size=16)

    def begin_event(self, time, priority, seq, label):
        self._h.update(f"{time!r}|{priority}|{seq}|{label}\n".encode())
        if self.keep_all or (
            self.keep_window is not None
            and self.keep_window[0] <= self.count < self.keep_window[1]
        ):
            self.records.append(EventRecord(self.count, time, priority, seq, label))
        self.count += 1
        if self.checkpoint_every and self.count % self.checkpoint_every == 0:
            self.checkpoints.append(self._h.copy().hexdigest())

    @property
    def fingerprint(self):
        return self._h.copy().hexdigest()


def random_stream(seed, n):
    """``n`` events as the kernel passes them: runs of events share one
    float object for the time (a lane drain at ``now``), some times are
    equal floats that are distinct objects, and labels include non-ASCII
    process names."""
    rng = random.Random(seed)
    labels = ["Timeout", "Initialize", "Event", "Process:p", "Process:hvac3.svc", "Process:é→ü"]
    now = 0.0
    for seq in range(n):
        roll = rng.random()
        if roll < 0.25:
            now = now + rng.choice([0.1, 1e-9, 0.3, 2.5])
        elif roll < 0.35:
            now = float(repr(now))  # the same value, a new object
        yield now, rng.randrange(2), seq, rng.choice(labels)


FOLD_CASES = [
    (every, window, keep_all)
    for every in (0, 1, 3, 1024, 2048)
    for window, keep_all in (
        (None, False),
        ((0, 0), False),
        ((5, 17), False),
        ((1020, 1030), False),
        ((2047, 10**9), False),
        (None, True),
    )
]


@pytest.mark.parametrize("every,window,keep_all", FOLD_CASES)
def test_buffered_fold_matches_one_update_per_event(every, window, keep_all):
    seed = FOLD_CASES.index((every, window, keep_all))
    n = 4500 if every != 1 else 2100
    # fingerprint reads mid-stream: at a flush boundary, next to one,
    # back to back, and at random
    rng = random.Random(seed)
    reads = {1, 1023, 1024, 1025, 1026, 2048} | {rng.randrange(n) for _ in range(6)}
    trace = EventTrace(checkpoint_every=every, keep_window=window, keep_all=keep_all)
    ref = ReferenceTrace(checkpoint_every=every, keep_window=window, keep_all=keep_all)
    for i, event in enumerate(random_stream(seed, n)):
        trace.begin_event(*event)
        ref.begin_event(*event)
        assert trace.count == ref.count
        if i in reads:
            assert trace.fingerprint == ref.fingerprint
    assert trace.fingerprint == ref.fingerprint
    assert trace.checkpoints == ref.checkpoints
    assert trace.records == ref.records
    assert trace.count == ref.count == n
    if every:
        assert len(trace.checkpoints) == n // every


def test_buffered_fold_matches_on_a_real_run():
    ref = ReferenceTrace(checkpoint_every=7, keep_window=(3, 40))
    trace = EventTrace(checkpoint_every=7, keep_window=(3, 40))
    env = Environment()
    env.observe(ref)
    env.observe(trace)

    def proc(k):
        for d in range(40):
            yield env.timeout((d * k) % 3 / 4)

    for k in range(30):
        env.process(proc(k), name=f"p{k}")
    env.run()
    assert trace.count == ref.count > 1024
    assert trace.fingerprint == ref.fingerprint
    assert trace.checkpoints == ref.checkpoints
    assert trace.records == ref.records


class TestBisector:
    @staticmethod
    def nondeterministic_run():
        """Alternates the middle delay on every other invocation —
        a reproducible stand-in for a stray unseeded RNG."""
        calls = {"n": 0}

        def run(trace):
            calls["n"] += 1
            middle = 2.0 if calls["n"] % 2 else 2.5
            simple_run([1.0, middle, 3.0])(trace)

        return run

    def test_deterministic_run_reports_none(self):
        assert find_first_divergence(simple_run([1.0, 2.0]), block=2) is None

    def test_bisects_to_first_divergent_event(self):
        report = find_first_divergence(self.nondeterministic_run(), block=2)
        assert report is not None
        assert report.fingerprint_a != report.fingerprint_b
        # the first divergent event is the reordered/retimed timeout
        assert report.first is not None and report.second is not None
        assert report.first.index == report.second.index == report.index
        assert report.first.time != report.second.time
        assert "first divergent event" in report.describe()

    def test_divergent_block_tail(self):
        # [1,2,3] fires Init + 3 Timeouts + the Process event (5 events);
        # [1,2,3,4] shares the first 4 exactly, so with block=2 both
        # checkpoints agree and the divergence sits in the tail window.
        a = EventTrace(checkpoint_every=2)
        b = EventTrace(checkpoint_every=2)
        simple_run([1.0, 2.0, 3.0])(a)
        simple_run([1.0, 2.0, 3.0, 4.0])(b)
        assert a.checkpoints == b.checkpoints[: len(a.checkpoints)]
        lo, hi = _divergent_block(a, b, 2)
        assert (lo, hi) == (4, b.count)


class TestExperimentDeterminism:
    def test_epochs_double_run_identical_fingerprints(self):
        """Two same-seed runs of a small epochs experiment must produce
        identical event streams (the repo's core reproducibility claim)."""
        scale = Scale(files_per_rank=4, sim_batch_size=2, repetitions=1,
                      procs_per_node=2)

        def run(trace):
            run_training(
                "hvac2", ALL_MODELS["resnet50"], IMAGENET21K, 2, scale,
                seed=7, trace=trace,
            )

        a = fingerprint_run(run)
        b = fingerprint_run(run)
        assert a.count == b.count > 100
        assert a.fingerprint == b.fingerprint

    def test_different_seeds_diverge(self):
        scale = Scale(files_per_rank=4, sim_batch_size=2, repetitions=1,
                      procs_per_node=2)

        def run_with(seed):
            trace = EventTrace()
            run_training(
                "hvac2", ALL_MODELS["resnet50"], IMAGENET21K, 2, scale,
                seed=seed, trace=trace,
            )
            return trace

        assert run_with(0).fingerprint != run_with(1).fingerprint

    def test_run_determinism_exit_code(self, capsys):
        assert run_determinism(seed=3, n_nodes=2, files_per_rank=2) == 0
        assert "determinism: OK" in capsys.readouterr().out


class TestCheckCLI:
    def test_lint_only_clean(self, capsys):
        assert main(["check", "--passes", "lint"]) == 0
        assert "simlint" in capsys.readouterr().out

    def test_determinism_only(self, capsys):
        assert main([
            "check", "--passes", "determinism",
            "--nodes", "2", "--files-per-rank", "2",
        ]) == 0
        assert "identical event streams" in capsys.readouterr().out

    def test_lint_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nr = random.Random(1)\n")
        assert main(["check", "--passes", "lint", str(bad)]) == 1
        assert "SIM002" in capsys.readouterr().out
