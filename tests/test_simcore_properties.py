"""Property-based tests for the simulation kernel, over the random
programs of ``tests/kernel_harness.py``.

The kernel's own spellings give the same run as the reference's
(``tests/kernel_reference.py``): the same program log, event stream,
hook calls, profile and race reports.  Global invariants hold on every
run: determinism, causality (time never goes backwards), resource
conservation (checked inline by the harness) and store item
conservation.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simcore import AllOf, Environment

from .kernel_harness import (
    HOLDER,
    LATE_INTERRUPT,
    NESTED_GRANTS,
    NESTED_STARTS,
    NEVER_YIELDS,
    PENDING_GRANT,
    POKED_AT_ZERO,
    QUEUED,
    STALE_WAKE,
    assert_one_run,
    only,
    programs,
    run_program,
)


@settings(max_examples=150, deadline=None)
@given(programs())
@example(PENDING_GRANT)
@example(QUEUED)
@example(HOLDER)
@example(NESTED_GRANTS)
@example(NESTED_STARTS)
@example(POKED_AT_ZERO)
@example(NEVER_YIELDS)
@example(STALE_WAKE)
@example(LATE_INTERRUPT)
def test_the_kernel_gives_the_reference_run(program):
    """Sleeps, grants, starts and conditions in the kernel's spellings
    and in the reference's: every observer and the program itself see
    one run."""
    assert_one_run(program)


@settings(max_examples=50, deadline=None)
@given(programs(only("cond", "succeed", "fail", "put", "get", "sleep", "interrupt")))
def test_property_condition_matches_fired_set_reference(program):
    """``AllOf``/``AnyOf`` over pending, processed, failing, repeated and
    store-get sub-events fire as the fired-set reference's do."""
    assert_one_run(program)


@settings(max_examples=60, deadline=None)
@given(programs())
def test_property_determinism(program):
    """Identical inputs produce identical runs."""
    first, second = [run_program(program) for _ in range(2)]
    assert first == second


@settings(max_examples=60, deadline=None)
@given(programs())
def test_property_causality_and_conservation(program):
    """Log times never go backwards; no store item is lost or
    duplicated; the resources never exceed capacity (asserted inline)."""
    run = run_program(program)
    times = [entry[0] for entry in run.log]
    assert times == sorted(times)
    # delivered ⊆ produced, no duplicates, leftovers still in the store
    assert len(set(run.delivered)) == len(run.delivered)
    assert set(run.delivered) <= set(run.produced)
    assert sorted(run.delivered + run.leftovers) == sorted(run.produced)


@given(
    n=st.integers(min_value=1, max_value=40),
    delays=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=40),
)
@settings(max_examples=40, deadline=None)
def test_property_allof_fires_at_max(n, delays):
    """AllOf triggers exactly at the latest sub-event."""
    env = Environment()
    delays = delays[:n] or [1.0]

    def proc():
        events = [env.timeout(d) for d in delays]
        yield AllOf(env, events)
        return env.now

    assert env.run(env.process(proc())) == max(delays)
