"""Statistics and result formatting."""

from .charts import ascii_chart
from .dashboard import count_strip, degradation_dashboard, degradation_strip
from .stats import MeanCI, empirical_cdf, gini, load_imbalance, mean_ci
from .tables import format_kv, format_series, format_table

__all__ = [
    "ascii_chart",
    "count_strip",
    "degradation_dashboard",
    "degradation_strip",
    "empirical_cdf",
    "format_kv",
    "format_series",
    "format_table",
    "gini",
    "load_imbalance",
    "MeanCI",
    "mean_ci",
]
