"""One collector pause per unit of work (``CollectorPause``).

``Environment.run``, each static-check entry point (``lint_tree``,
``perf_lint_tree``, ``audit_tree`` and ``run_check``'s static block)
and each fuzz ``execute`` pause the cyclic collector.  The pause is
sound only while the work makes no cyclic garbage per unit of input:
whatever cycles a simulation leaves must be the fixed cost of tearing a
deployment down, not a cost that grows with the reads, and a static
pass must leave no more over the whole source tree than over
``simcore/``.  The acyclicity tests measure that with the collector off,
and toy passes with one cycle per read or per file show the measures
catch the bad case.  The contract tests pin what each paused unit does
to the caller's collector state.
"""

import ast
import gc
import os

import pytest

import repro.fuzz.executor
from repro.check import (
    Program,
    _epochs_run,
    audit_tree,
    lint_tree,
    perf_lint_tree,
    run_check,
)
from repro.check.races import membership_smoke
from repro.experiments import prefetch, tenancy
from repro.faults import FaultEvent
from repro.fuzz import Scenario, Workload, execute
from repro.obs import SpanRecorder
from repro.simcore import Environment

from .conftest import SRC_ROOT

#: largest growth in cyclic garbage from the smaller run to the larger
MAX_GROWTH = 1.25

#: most cyclic garbage a static pass over ``src/repro`` may leave beyond
#: its pass over ``simcore/``.  ``audit_tree`` leaves 88 objects today:
#: ``ast.literal_eval`` ties 11 closures into a cycle per parsed
#: ``RACE_CELLS``, and 8 modules outside ``simcore/`` declare one.
MAX_STATIC_GARBAGE = 128


@pytest.fixture
def collector_off():
    """The collector off for the test; the caller's state comes back
    after, and whatever :func:`cyclic_garbage` saved is let go."""
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def cyclic_garbage(run) -> int:
    """Objects one collection finds after ``run()``, collector off.
    They stay in ``gc.garbage`` until the next call."""
    # Free what an earlier call saved: a saved cycle dropped from
    # gc.garbage is garbage again, and a saving collection would
    # count it twice.
    gc.set_debug(0)
    gc.garbage.clear()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    run()
    return gc.collect()


def growth(make_run, small: int, large: int) -> float:
    """Cyclic garbage of ``make_run(large)`` over ``make_run(small)``.
    ``small`` runs once first, so one-time costs (imports, caches) land
    in neither measurement."""
    make_run(small)()
    return cyclic_garbage(make_run(large)) / cyclic_garbage(make_run(small))


def _epochs(files_per_rank):
    return lambda: _epochs_run(seed=0, n_nodes=2, files_per_rank=files_per_rank)(None)


def _membership(n_files):
    return lambda: membership_smoke(seed=0, n_files=n_files)


def _fuzz(reads_per_client):
    """One faulted fuzz execution on the membership stack.  The run
    keeps the :class:`Observation` it returns, as a campaign does: the
    observation holds the run's span fold, which is per-read data by
    design, not a cycle."""
    scenario = Scenario(
        seed=3,
        n_nodes=4,
        replication=2,
        membership=True,
        n_files=12,
        mean_file_size=20_000,
        workload=Workload(clients=(0, 1, 2), reads_per_client=reads_per_client),
        faults=(FaultEvent(time=0.001, kind="crash", node=1, duration=0.02),),
    )
    kept = []
    return lambda: kept.append(execute(scenario))


def _cycle_per_read(n_reads):
    """A toy model whose every read leaves one cycle behind."""

    def run():
        env = Environment()

        def reader():
            for i in range(n_reads):
                record = {"read": i}
                record["self"] = record
                yield env.timeout(1.0)

        env.process(reader())
        env.run()

    return run


@pytest.mark.usefixtures("collector_off")
class TestAcyclicity:
    def test_fault_free_run_makes_no_per_read_cycles(self):
        assert growth(_epochs, 4, 16) <= MAX_GROWTH

    def test_faulted_run_makes_no_per_read_cycles(self):
        # Crashes, interrupts and caught exceptions are where frames
        # most easily tie themselves into cycles.
        assert growth(_membership, 12, 96) <= MAX_GROWTH

    def test_fuzz_execution_makes_no_per_read_cycles(self):
        assert growth(_fuzz, 12, 48) <= MAX_GROWTH

    def test_negative_control_one_cycle_per_read_fails_the_measure(self):
        assert growth(_cycle_per_read, 64, 256) > MAX_GROWTH

    @pytest.mark.parametrize(
        "compare",
        [
            lambda: prefetch.prefetch_comparison(**prefetch.SMOKE),
            lambda: tenancy.tenancy_isolation(**tenancy.SMOKE),
        ],
        ids=["prefetch", "tenancy"],
    )
    def test_finished_modes_release_their_timelines(self, compare):
        # A finished deployment is cyclic, so with run() pausing the
        # collector each mode's recorder would otherwise stay live
        # through the next mode.
        cyclic_garbage(compare)
        recorders = [o for o in gc.garbage if isinstance(o, SpanRecorder)]
        assert [len(r.events) for r in recorders] == [0] * len(recorders)


SIMCORE = os.path.join(SRC_ROOT, "simcore")


def _run_check(paths):
    return run_check(paths, ["taint", "perf", "cells"])


#: every static-check entry point that holds one pause, by name
STATIC_ENTRY_POINTS = {
    "lint_tree": lambda paths: lint_tree(paths, taint=True),
    "perf_lint_tree": perf_lint_tree,
    "audit_tree": audit_tree,
    "run_check": _run_check,
}


def static_growth(check) -> int:
    """Cyclic garbage of one ``check`` over ``src/repro`` minus one over
    ``simcore/``.  A first ``simcore/`` pass warms the one-time costs."""
    check([SIMCORE])
    small = cyclic_garbage(lambda: check([SIMCORE]))
    return cyclic_garbage(lambda: check([SRC_ROOT])) - small


class _CachingVisitor:
    """A toy visitor that caches a bound method on itself: a cycle."""

    def __init__(self, path):
        self.path = path
        self.visit = self.generic_visit

    def generic_visit(self, node):
        pass


def _cycle_per_file(paths):
    """A toy static pass whose every file leaves one cycle behind."""
    for f in Program.read(paths).files:
        _CachingVisitor(f.path).visit(f.tree)


@pytest.mark.usefixtures("collector_off")
class TestStaticAcyclicity:
    @pytest.mark.parametrize("name", sorted(STATIC_ENTRY_POINTS))
    def test_garbage_does_not_grow_with_the_file_count(self, name, capsys):
        assert static_growth(STATIC_ENTRY_POINTS[name]) <= MAX_STATIC_GARBAGE

    def test_negative_control_one_cycle_per_file_fails_the_measure(self):
        assert static_growth(_cycle_per_file) > MAX_STATIC_GARBAGE


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_enabled:
            gc.disable()


def _probe(env, seen, delay=1.0):
    """A process that records the collector state it runs under."""

    def body():
        seen.append(gc.isenabled())
        yield env.timeout(delay)
        seen.append(gc.isenabled())
        return "done"

    return env.process(body())


@pytest.mark.usefixtures("collector_on")
class TestRunContract:
    def test_paused_inside_and_restored_after_a_drain(self):
        env, seen = Environment(), []
        _probe(env, seen)
        env.run()
        assert seen == [False, False]
        assert gc.isenabled()

    def test_restored_after_run_until_a_time(self):
        env, seen = Environment(), []
        _probe(env, seen, delay=10.0)
        env.run(until=5.0)
        assert seen == [False]
        assert gc.isenabled()
        env.run(until=20.0)
        assert seen == [False, False]
        assert gc.isenabled()

    def test_restored_after_run_until_an_event(self):
        env, seen = Environment(), []
        assert env.run(_probe(env, seen)) == "done"
        assert seen == [False, False]
        assert gc.isenabled()

    def test_restored_after_an_unhandled_failure(self):
        env = Environment()

        def body():
            assert not gc.isenabled()
            yield env.timeout(1.0)
            raise ValueError("boom")

        env.process(body())
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self):
        env, seen = Environment(), []
        _probe(env, seen)
        gc.disable()
        env.run()
        assert seen == [False, False]
        assert not gc.isenabled()

    def test_nested_run_leaves_the_outer_run_paused(self):
        outer, inner, seen = Environment(), Environment(), []

        def body():
            _probe(inner, seen)
            inner.run()
            seen.append(gc.isenabled())
            yield outer.timeout(1.0)

        outer.process(body())
        outer.run()
        assert seen == [False, False, False]
        assert gc.isenabled()


@pytest.fixture
def unparseable(tmp_path):
    path = tmp_path / "unparseable.py"
    path.write_text("def f(:\n")
    return str(path)


COLLECTION = "collection"


@pytest.fixture
def probe_log(monkeypatch):
    """A log of the collector state at each probe, and of each
    collection that starts (:data:`COLLECTION`).  ``probe_log.at(obj,
    name)`` wraps a callable attribute with a probe."""

    class Log(list):
        def at(self, obj, name):
            call = getattr(obj, name)

            def probe(*args, **kwargs):
                self.append(gc.isenabled())
                return call(*args, **kwargs)

            monkeypatch.setattr(obj, name, probe)

    log = Log()

    def note(phase, info):
        if phase == "start":
            log.append(COLLECTION)

    gc.callbacks.append(note)
    try:
        yield log
    finally:
        gc.callbacks.remove(note)


def first_to_last_probe(log) -> list:
    """The log from the first probe through the last: a collection
    before the unit of work or after its pause is not the unit's."""
    probes = [i for i, entry in enumerate(log) if entry is not COLLECTION]
    return log[probes[0] : probes[-1] + 1]


@pytest.fixture
def static_probe(probe_log):
    """Probes ``Program`` construction and each pass's closing waiver
    filter, the last step of every pass."""
    probe_log.at(Program, "__init__")
    probe_log.at(Program, "waive")
    return probe_log


@pytest.mark.usefixtures("collector_on")
class TestStaticCheckContract:
    @pytest.mark.parametrize("name", sorted(STATIC_ENTRY_POINTS))
    def test_paused_from_the_parse_through_the_last_pass(
        self, name, static_probe, capsys
    ):
        STATIC_ENTRY_POINTS[name]([SIMCORE])
        span = first_to_last_probe(static_probe)
        # One parse, then a waiver filter per pass (run_check has three).
        # A pause per part would let a collection run between them.
        assert len(span) >= 2
        assert span == [False] * len(span)
        assert gc.isenabled()

    @pytest.mark.parametrize("name", sorted(STATIC_ENTRY_POINTS))
    def test_restored_after_an_unparseable_file(self, name, unparseable):
        with pytest.raises(ValueError, match="cannot parse"):
            STATIC_ENTRY_POINTS[name]([unparseable])
        assert gc.isenabled()

    @pytest.mark.parametrize("passes", [["lint"], ["cells"]], ids=["lint", "cells-only"])
    def test_restored_after_run_check_exits_2(self, passes, unparseable):
        # run_check raises; the CLI turns that into exit 2
        for paths in ([unparseable], ["no_such_dir"]):
            with pytest.raises(ValueError):
                run_check(paths, passes)
            assert gc.isenabled()

    def test_cells_only_returns_from_inside_the_pause(self, static_probe, capsys):
        assert run_check([SIMCORE], ["cells"]) == 0
        span = first_to_last_probe(static_probe)
        assert len(span) == 2 and span == [False, False]
        assert gc.isenabled()

    @pytest.mark.parametrize("name", sorted(STATIC_ENTRY_POINTS))
    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(
        self, name, capsys
    ):
        gc.disable()
        STATIC_ENTRY_POINTS[name]([SIMCORE])
        assert not gc.isenabled()


@pytest.mark.usefixtures("collector_on")
class TestExecuteContract:
    def test_paused_from_the_build_through_the_last_step(self, probe_log):
        # execute builds the deployment first and folds the spans last
        probe_log.at(repro.fuzz.executor, "HVACDeployment")
        probe_log.at(SpanRecorder, "fold")
        _fuzz(4)()
        assert first_to_last_probe(probe_log) == [False, False]
        assert gc.isenabled()

    def test_restored_when_an_exception_escapes(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(SpanRecorder, "fold", boom)
        with pytest.raises(RuntimeError, match="boom"):
            _fuzz(4)()
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self):
        gc.disable()
        _fuzz(4)()
        assert not gc.isenabled()


def _references_gc(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            return True
        if isinstance(node, ast.Name) and node.id == "gc":
            return True
    return False


def test_only_the_kernel_touches_the_collector(src_program):
    touching = [
        os.path.relpath(f.path, SRC_ROOT)
        for f in src_program.files
        if _references_gc(f.tree)
    ]
    assert touching == [os.path.join("simcore", "engine.py")]
