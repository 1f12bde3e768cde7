"""Pinned event streams of the six scenarios in ``pinned_scenarios``.

Each scenario is deterministic, so its event count and its
``EventTrace`` fingerprint (a hash over every fired event's
``(time, priority, seq, label)``) are properties of the code.  Kernel
work must leave both identical: the same events, in the same order,
with the same sequence numbers.  A deliberate change of simulated
behaviour re-records them here.
"""

import pytest

from repro.simcore import EventTrace

from .pinned_scenarios import SCENARIOS

PINNED = {
    "epochs": (1864, "a5f8ed43c373bb9b57ca5a4ab0fe6f3d"),
    "membership": (12913, "70cc297c3982c94e76e09a82e9871aa3"),
    "resilience": (21623, "217a75bdaadd68210be27912feacddd5"),
    "tenancy": (102432, "d072f6f136d10b469e07b194e46b1363"),
    "prefetch": (55936, "2382f0ec1c4ad9151fab35a9cce294f3"),
    "fuzz_single": (9377, "7f09cc2523242fa662b761d444069e05"),
}


def test_every_bench_scenario_is_pinned():
    assert set(PINNED) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_event_stream_matches_pin(name):
    trace = EventTrace()
    SCENARIOS[name](trace)
    assert (trace.count, trace.fingerprint) == PINNED[name]
