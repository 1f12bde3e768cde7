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
    "epochs": (1656, "a2572ca56b3403871f26becf3c9f3f2f"),
    "membership": (11041, "0f45b5d30f87cd8a0ad1ebcbea313f04"),
    "resilience": (18841, "9098d58dedef51ce1d8af0dbd174d172"),
    "tenancy": (92074, "def9306477fd5599f9cc90ef037eb47d"),
    "prefetch": (50471, "47b79fc35ff11f90e8b1523bb776cb1d"),
    "fuzz_single": (8072, "a07f3d801cdefb2dfeacaf1ea3ac2f3b"),
}


def test_every_bench_scenario_is_pinned():
    assert set(PINNED) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_event_stream_matches_pin(name):
    trace = EventTrace()
    SCENARIOS[name](trace)
    assert (trace.count, trace.fingerprint) == PINNED[name]
