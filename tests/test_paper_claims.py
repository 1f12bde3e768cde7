"""The paper-claims gate: the twelve Fig 9 values at bench scale.

Fig 9b is HVAC's training-time overhead over XFS-on-NVMe, and Fig 9a its
gain over GPFS, for HVAC(1x1), (2x1) and (4x1) at 2 and 8 nodes.  Each
comes from ``node_scaling`` at the figure benches' scale, as the mean of
seeds 0 and 1, and is pinned at ±2.0 points.  That is wider than the
largest shift another seed pair gives (1.6 points) and narrower than
the smallest shift a 100-fold per-message network overhead gives (2.2
points).  So a change that only reorders same-instant events keeps the
gate, and a change to the model fails it (docs/INTERNALS.md §1,
"Re-recording the digests").
"""

import dataclasses

from repro.cluster import SUMMIT
from repro.dl import IMAGENET21K, RESNET50
from repro.experiments import Scale
from repro.experiments.scaling import node_scaling, normalized_to_gpfs, overhead_vs_xfs

#: Points either side of each pinned value.
TOLERANCE = 2.0
#: Percent at 2 and 8 nodes, per figure and HVAC configuration.
PINNED = {
    "9b overhead vs XFS": {
        "HVAC(1x1)": [22.7, 25.9], "HVAC(2x1)": [17.6, 17.1], "HVAC(4x1)": [13.5, 13.4],
    },
    "9a gain vs GPFS": {
        "HVAC(1x1)": [14.9, 12.8], "HVAC(2x1)": [18.4, 18.9], "HVAC(4x1)": [21.3, 21.4],
    },
}


def claims(spec=SUMMIT):
    """The twelve values, shaped as :data:`PINNED`."""
    scale = Scale(files_per_rank=8, sim_batch_size=4, procs_per_node=4, repetitions=2)
    result = node_scaling(RESNET50, IMAGENET21K, [2, 8], scale, spec=spec)
    return {
        "9b overhead vs XFS": overhead_vs_xfs(result),
        "9a gain vs GPFS": normalized_to_gpfs(result),
    }


def misses(measured):
    """Each value further than :data:`TOLERANCE` from its pin, as
    ``(figure, system, nodes, measured, pinned)``."""
    return [
        (figure, system, nodes, round(got, 2), want)
        for figure, systems in PINNED.items()
        for system, pins in systems.items()
        for nodes, got, want in zip([2, 8], measured[figure][system], pins, strict=True)
        if abs(got - want) > TOLERANCE
    ]


def test_the_fig9_claims_hold():
    assert misses(claims()) == []


def test_the_gate_fails_a_model_change():
    # A 100-fold per-message overhead moves every value by 2.2 points
    # or more.
    network = dataclasses.replace(
        SUMMIT.network, per_message_overhead=SUMMIT.network.per_message_overhead * 100
    )
    assert len(misses(claims(dataclasses.replace(SUMMIT, network=network)))) == 12
