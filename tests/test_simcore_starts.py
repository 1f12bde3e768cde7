"""A process starts from its own urgent-lane entry: the constructor
queues ``(seq, process)`` where it used to build an ``Initialize`` event.

The entry takes the seq the event would have drawn, at the same point
in the constructor, and fires as that event would: label
``Initialize``, priority URGENT, one callback.  A start is never stale:
an interrupt requested before it queues behind it on the same lane.  So
every observer sees the same stream either way (docs/INTERNALS.md §1,
"Processes").  :func:`test_a_start_without_initialize_gives_the_same_stream`
runs random spawning programs both ways, against the event-based
constructor the kernel used to have (``tests/kernel_reference.py``);
``tests/test_simcore_properties.py`` mixes them with every other kernel
feature.
"""

from hypothesis import example, given, settings

from repro.simcore import Environment
from repro.simcore.engine import NORMAL, URGENT

from .kernel_harness import (
    NESTED_STARTS,
    NEVER_YIELDS,
    POKED_AT_ZERO,
    Recorder,
    assert_one_run,
    fired,
    only,
    programs,
    run_program,
)


@settings(max_examples=50, deadline=None)
@given(programs(only("spawn", "join", "poke", "early", "twins", "interrupt", "sleep", "grab")))
@example(NESTED_STARTS)
@example(POKED_AT_ZERO)
@example(NEVER_YIELDS)
def test_a_start_without_initialize_gives_the_same_stream(program):
    """A start from the process's own lane entry and one from an
    ``Initialize`` event give one run, through spawns, joins, early
    exits and interrupts before and after a start."""
    assert_one_run(program)


def test_the_hand_picked_programs_start_exit_and_interrupt_as_meant():
    run = run_program(NESTED_STARTS)
    # Actor 1 pokes child 4 before its start; actor 0 pokes child 11.
    assert [entry[:4] for entry in run.log if entry[1] == "interrupted"] == [
        (0.0, "interrupted", 4, 1), (0.5, "interrupted", 11, 0),
    ]
    assert (0.5, "joined", 0, 3) in run.log and (0.5, "twins", 0, 13) in run.log
    events = fired(run.calls)
    starts = {(priority, n) for _, priority, _, label, n in events if label == "Initialize"}
    assert starts == {(URGENT, 1)}
    labels = [event[3] for event in events]
    # An exit fires between two starts.
    first_exit = next(i for i, label in enumerate(labels) if label.startswith("Process:"))
    assert "Initialize" in labels[first_exit + 1:]
    run = run_program(POKED_AT_ZERO)
    assert [entry[:4] for entry in run.log if entry[1] == "interrupted"] == [
        (0.0, "interrupted", 0, "top"), (0.0, "interrupted", 2, "top"),
    ]


def test_a_start_is_the_process_on_the_urgent_lane():
    env = Environment()
    recorder = Recorder(env)
    env.observe(recorder)

    def body():
        yield 1

    proc = env.process(body(), name="p")
    (seq, entry), = env._urgent
    assert entry is proc and proc._wake is seq
    assert recorder.calls == [("schedule", seq, 0.0, 0.0, URGENT)]
    env.step()
    assert proc._wake == seq + 1 and proc.target is None
    assert recorder.calls[1:] == [
        ("begin", 0.0, URGENT, seq, "Initialize"),
        ("schedule", proc._wake, 1, 1.0, NORMAL),  # its sleep, from inside the start
        ("end", 1),
    ]
