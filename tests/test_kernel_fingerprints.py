"""Pinned event streams of the seven ``repro bench`` scenarios.

Each scenario is deterministic, so its event count and its
``EventTrace`` fingerprint (a hash over every fired event's
``(time, priority, seq, label)``) are properties of the code.  Kernel
work must leave both identical: the same events, in the same order,
with the same sequence numbers.  A deliberate change of simulated
behaviour re-records them here.
"""

import pytest

from repro.bench import SCENARIOS
from repro.simcore import EventTrace

PINNED = {
    "epochs": (1864, "a5f8ed43c373bb9b57ca5a4ab0fe6f3d"),
    "epochs_traced": (1864, "a5f8ed43c373bb9b57ca5a4ab0fe6f3d"),
    "membership": (13206, "0ae1e0a4f0936bb2cd7a00eb8f63b1fd"),
    "resilience": (21267, "299d9537b139248c4c5a4d8f8c58e286"),
    "tenancy": (104044, "625bb761bf0c0b0131c523d8a4c7ae41"),
    "prefetch": (55963, "6e7f184ae34d29b388c44e2f8137ed4e"),
    "fuzz_single": (9661, "81b2b9a401c226c7307975313697beb8"),
}


def test_every_bench_scenario_is_pinned():
    assert set(PINNED) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_event_stream_matches_pin(name):
    trace = EventTrace()
    SCENARIOS[name].run(trace)
    assert (trace.count, trace.fingerprint) == PINNED[name]
