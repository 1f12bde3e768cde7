"""Deterministic discrete-event simulation kernel (SimPy-like, from scratch)."""

from .engine import (
    AllOf,
    AnyOf,
    CollectorPause,
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    run_all,
)
from .cells import cell_name
from .monitor import Counter, MetricRegistry, MetricScope
from .profile import ComponentProfile, SimProfiler
from .rand import RandomStreams, stable_hash64
from .resources import PriorityResource, Resource
from .stores import Store
from .trace import EventRecord, EventTrace, event_label

__all__ = [
    "AllOf",
    "AnyOf",
    "CollectorPause",
    "ComponentProfile",
    "Condition",
    "Counter",
    "Environment",
    "Event",
    "EventRecord",
    "EventTrace",
    "event_label",
    "Interrupt",
    "MetricRegistry",
    "MetricScope",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "cell_name",
    "Resource",
    "run_all",
    "SimProfiler",
    "SimulationError",
    "stable_hash64",
    "Store",
    "Timeout",
]
