"""Statistical reductions used by the experiment harness.

The paper reports means with 95% confidence intervals over three
repetitions (§IV-A3); :func:`mean_ci` reproduces exactly that (normal
approximation for n≥30, Student-t otherwise, matching common practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["MeanCI", "mean_ci", "empirical_cdf", "gini", "load_imbalance"]

# Two-sided Student-t 97.5% quantiles for small n (df = n-1).
_T975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    15: 2.131, 20: 2.086, 29: 2.045,
}


def _t975(df: int) -> float:
    if df <= 0:
        return float("nan")
    if df in _T975:
        return _T975[df]
    for known in sorted(_T975):
        if df < known:
            return _T975[known]
    return 1.96


@dataclass(frozen=True)
class MeanCI:
    """Sample mean with a symmetric 95% confidence half-width."""

    mean: float
    half_width: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.3g} ± {self.half_width:.2g}"


def mean_ci(samples: Sequence[float]) -> MeanCI:
    """95% CI of the mean (Student-t)."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("no samples")
    if arr.size == 1:
        return MeanCI(mean=float(arr[0]), half_width=0.0)
    sem = float(arr.std(ddof=1)) / np.sqrt(arr.size)
    return MeanCI(
        mean=float(arr.mean()),
        half_width=_t975(arr.size - 1) * sem,
    )


def empirical_cdf(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(sorted values, cumulative probability) — Fig 15's CDF axes."""
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise ValueError("no values")
    probs = np.arange(1, arr.size + 1) / arr.size
    return arr, probs


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a load distribution (0 = perfectly balanced)."""
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise ValueError("no values")
    total = arr.sum()
    if total == 0:
        return 0.0
    n = arr.size
    cum = np.cumsum(arr)
    return float((n + 1 - 2 * (cum / total).sum()) / n)


def load_imbalance(values: Sequence[float]) -> float:
    """max/mean ratio — 1.0 is a perfectly even file distribution."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("no values")
    mean = arr.mean()
    return float(arr.max() / mean) if mean > 0 else 0.0
