"""Lightweight instrumentation for simulation components.

Collectors are O(1)-memory streaming reductions, so hot paths pay a
few arithmetic operations per sample.  Everything downstream
(tables, CDFs, confidence intervals) reads from these.

Names are hierarchical, dot-joined strings.  A :class:`MetricScope` is a
prefix view over one shared :class:`MetricRegistry` — components hold a
scope (``hvac.c3.detector``) instead of hand-assembling prefixes, and
scopes nest, so the observability layer (``repro.obs``) can slice the
namespace by component without any coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Tally",
    "Histogram",
    "MetricScope",
    "MetricRegistry",
]


class Counter:
    """Monotonic named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def incr(self, by: int = 1) -> None:
        self.value += by

    def __int__(self) -> int:
        return self.value


class Tally:
    """Streaming scalar statistics (count/mean/min/max/variance).

    Welford's algorithm; O(1) memory regardless of sample count, which
    matters for multi-million-transaction MDTest runs.
    """

    __slots__ = ("name", "n", "_mean", "_m2", "_min", "_max")

    def __init__(self, name: str):
        self.name = name
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else float("nan")

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        return self.variance**0.5

    @property
    def min(self) -> float:
        return self._min if self.n else float("nan")

    @property
    def max(self) -> float:
        return self._max if self.n else float("nan")


#: :class:`Histogram` binning: geometric bins between ``_LO`` and
#: ``_HI`` seconds, ``_BINS_PER_DECADE`` per power of ten.
_LO = 1e-7
_HI = 1e4
_BINS_PER_DECADE = 8
_LOG_GROWTH = math.log(10.0) / _BINS_PER_DECADE
_N_BINS = math.ceil(math.log10(_HI / _LO) * _BINS_PER_DECADE)


class Histogram:
    """Geometric-binned distribution with O(1) memory and quantiles.

    Bins grow by a constant factor (``_BINS_PER_DECADE`` per power of
    ten) between ``_LO`` and ``_HI``, with explicit under/overflow bins,
    so latencies spanning microseconds to seconds all resolve.  ``add``
    is O(1) (one log, one increment) and never touches the kernel, so
    histograms are safe on hot paths.  Quantiles interpolate at the
    geometric midpoint of the covering bin, clamped to the observed
    min/max — deterministic, and within one bin width of exact.
    """

    __slots__ = ("name", "counts", "n", "_sum", "_min", "_max")

    def __init__(self, name: str):
        self.name = name
        # counts[0] = underflow (x <= _LO), counts[-1] = overflow (x > _HI);
        # allocated on the first ``add``, since many histograms in a
        # large fleet never see a sample.
        self.counts: list[int] | tuple[()] = ()
        self.n = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, x: float) -> None:
        if x <= _LO:
            idx = 0
        else:
            b = int(math.log(x / _LO) / _LOG_GROWTH) + 1
            idx = b if b <= _N_BINS else _N_BINS + 1
        counts = self.counts
        if not counts:
            counts = self.counts = [0] * (_N_BINS + 2)
        counts[idx] += 1
        self.n += 1
        self._sum += x
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    @property
    def mean(self) -> float:
        return self._sum / self.n if self.n else float("nan")

    @property
    def min(self) -> float:
        return self._min if self.n else float("nan")

    @property
    def max(self) -> float:
        return self._max if self.n else float("nan")

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0..1) from the bin counts."""
        if not self.n:
            return float("nan")
        if q <= 0.0:
            return self._min
        if q >= 1.0:
            return self._max
        target = q * self.n
        cum = 0
        for idx, c in enumerate(self.counts):
            if c == 0:
                continue
            cum += c
            if cum >= target:
                if idx == 0:
                    value = _LO
                elif idx == _N_BINS + 1:
                    value = self._max  # overflow: all we know is the max
                else:
                    b_lo = _LO * math.exp((idx - 1) * _LOG_GROWTH)
                    value = b_lo * math.exp(_LOG_GROWTH / 2.0)
                return min(max(value, self._min), self._max)
        return self._max  # pragma: no cover — cum always reaches n

    def percentiles(self) -> dict[str, float]:
        """The SLO trio: p50/p95/p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricScope:
    """A dotted-prefix view over a shared registry; scopes nest.

    ``registry.scope("hvac").scope("c3").counter("reads")`` names the
    same collector as ``registry.counter("hvac.c3.reads")`` — scopes add
    no storage beyond a per-scope collector cache, only naming
    discipline.  The cache makes repeated lookups lazy about label
    construction: the dotted name is built once per (scope, name), not
    once per sample, so hot paths that look collectors up by name pay a
    plain dict hit (PERF103).
    """

    __slots__ = ("registry", "prefix", "_counters", "_tallies", "_histograms")

    def __init__(self, registry: "MetricRegistry", prefix: str):
        self.registry = registry
        self.prefix = prefix
        self._counters: dict[str, Counter] = {}
        self._tallies: dict[str, Tally] = {}
        self._histograms: dict[str, Histogram] = {}

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name  # perf: waive PERF103 -- miss path only; hits come from the per-scope collector cache

    def scope(self, name: str) -> "MetricScope":
        return MetricScope(self.registry, self._name(name))

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = self.registry.counter(self._name(name))
        return c

    def tally(self, name: str) -> Tally:
        t = self._tallies.get(name)
        if t is None:
            t = self._tallies[name] = self.registry.tally(self._name(name))
        return t

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = self.registry.histogram(self._name(name))
        return h

    def __repr__(self) -> str:
        return f"<MetricScope {self.prefix!r}>"


@dataclass
class MetricRegistry:
    """Namespaced container of collectors shared across one simulation."""

    counters: dict[str, Counter] = field(default_factory=dict)
    tallies: dict[str, Tally] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def tally(self, name: str) -> Tally:
        t = self.tallies.get(name)
        if t is None:
            t = self.tallies[name] = Tally(name)
        return t

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    def scope(self, prefix: str) -> MetricScope:
        """A nestable dotted-prefix view (see :class:`MetricScope`)."""
        return MetricScope(self, prefix)

    def snapshot(self) -> dict:
        """A plain-dict view of every collector (for result records)."""
        out: dict = {}
        for name, c in self.counters.items():
            out[name] = c.value
        for name, t in self.tallies.items():
            # perf: waive PERF105 -- post-run snapshot assembly, not per-event
            out[name] = {
                "n": t.n,
                "mean": t.mean,
                "std": t.std,
                "min": t.min,
                "max": t.max,
            }
        for name, h in self.histograms.items():
            # perf: waive PERF105 -- post-run snapshot assembly, not per-event
            out[name] = {
                "n": h.n,
                "mean": h.mean,
                "min": h.min,
                "max": h.max,
                **h.percentiles(),
            }
        return out
