"""Lightweight instrumentation for simulation components: named counters.

Counters are O(1) streaming sums, so hot paths pay one addition per
sample.  Per-read latency and per-entity attribution are not counted
here: they live once, in the run's span tree (``repro.obs``).

Names are hierarchical, dot-joined strings.  A :class:`MetricScope` is a
prefix view over one shared :class:`MetricRegistry`: components hold a
scope (``hvac``, ``hvac.repair``) instead of hand-assembling prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "MetricScope",
    "MetricRegistry",
]


class Counter:
    """Monotonic named counter; ``incr`` takes a count or a float sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def incr(self, by: float = 1) -> None:
        self.value += by

    def __int__(self) -> int:
        return int(self.value)


class MetricScope:
    """A dotted-prefix view over a shared registry.

    ``registry.scope("hvac").counter("cache_hits")`` names the same
    counter as ``registry.counter("hvac.cache_hits")`` — scopes add no
    storage beyond a per-scope counter cache, only naming discipline.
    The cache makes repeated lookups lazy about label
    construction: the dotted name is built once per (scope, name), not
    once per sample, so hot paths that look counters up by name pay a
    plain dict hit (PERF103).
    """

    __slots__ = ("registry", "prefix", "_counters")

    def __init__(self, registry: "MetricRegistry", prefix: str):
        self.registry = registry
        self.prefix = prefix
        self._counters: dict[str, Counter] = {}

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name  # perf: waive PERF103 -- miss path only; hits come from the per-scope counter cache

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = self.registry.counter(self._name(name))
        return c

    def __repr__(self) -> str:
        return f"<MetricScope {self.prefix!r}>"


@dataclass
class MetricRegistry:
    """Namespaced counters shared across one simulation."""

    counters: dict[str, Counter] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def scope(self, prefix: str) -> MetricScope:
        """A dotted-prefix view (see :class:`MetricScope`)."""
        return MetricScope(self, prefix)

    def snapshot(self) -> dict[str, float]:
        """A plain-dict view of every counter (for result records)."""
        return {name: c.value for name, c in self.counters.items()}
