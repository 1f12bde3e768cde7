"""``Environment.run`` pauses the cyclic collector.

The pause is sound only while the simulation makes no cyclic garbage per
read: whatever cycles a run leaves must be the fixed cost of tearing a
deployment down, not a cost that grows with the reads.  The acyclicity
tests measure that with the collector off, and a toy model with one
cycle per read shows the measure catches the bad case.  The contract
tests pin what ``run()`` does to the caller's collector state.
"""

import ast
import gc
import os

import pytest

from repro.check import _epochs_run
from repro.check.races import membership_smoke
from repro.experiments import prefetch, tenancy
from repro.obs import SpanRecorder
from repro.simcore import Environment

from .conftest import SRC_ROOT

#: largest growth in cyclic garbage from the smaller run to the larger
MAX_GROWTH = 1.25


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
    return lambda: membership_smoke(seed=0, n_nodes=4, n_files=n_files)


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
