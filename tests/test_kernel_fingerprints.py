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
    "epochs": (1592, "c2fc09d58952c3a7d813ace9346e45c7"),
    "membership": (10551, "41e0da1791c04b466f49501698155c9b"),
    "resilience": (18123, "14ec4d0104cd05cefd998bf0277627e8"),
    "tenancy": (89139, "22733d923682b3d9922e65d13f198d9a"),
    "prefetch": (48990, "89e492a4c458ca07dc3ee2d8caaa5a48"),
    "fuzz_single": (7721, "4ba8e75c313eea4bb596a929e4fc41d9"),
}


def test_every_bench_scenario_is_pinned():
    assert set(PINNED) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_event_stream_matches_pin(name):
    trace = EventTrace()
    SCENARIOS[name](trace)
    assert (trace.count, trace.fingerprint) == PINNED[name]
