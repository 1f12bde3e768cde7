"""Per-figure experiment drivers (one module per paper figure).

The package re-exports only the run harness, which every driver builds
on.  Import a driver from the module that defines it, for example
``from repro.experiments.scaling import node_scaling``, so a run loads
only the drivers it calls.
"""

from .harness import Scale, repeat_training, resolve_setup, run_training

__all__ = [
    "repeat_training",
    "resolve_setup",
    "run_training",
    "Scale",
]
