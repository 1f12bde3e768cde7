"""Tests for statistics and table formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    empirical_cdf,
    format_kv,
    format_series,
    format_table,
    gini,
    load_imbalance,
    mean_ci,
)


class TestMeanCI:
    def test_three_repetitions_paper_style(self):
        ci = mean_ci([10.0, 11.0, 12.0])
        assert ci.mean == 11.0
        # three samples: t(df=2, 97.5%) = 4.303; sem = 1/sqrt(3)
        assert ci.half_width == pytest.approx(4.303 / np.sqrt(3), rel=1e-3)
        assert ci.low < 11.0 < ci.high

    def test_single_sample(self):
        ci = mean_ci([5.0])
        assert ci.mean == 5.0
        assert ci.half_width == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_large_n_uses_normal(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, 1000)
        ci = mean_ci(data)
        assert ci.half_width == pytest.approx(1.96 / np.sqrt(1000), rel=0.15)

    def test_str(self):
        assert "±" in str(mean_ci([1.0, 2.0]))


class TestCDF:
    def test_shape_and_monotonicity(self):
        xs, ps = empirical_cdf([3.0, 1.0, 2.0])
        assert xs.tolist() == [1.0, 2.0, 3.0]
        assert ps.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


class TestGini:
    def test_perfectly_balanced(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-12)

    def test_fully_concentrated(self):
        g = gini([0, 0, 0, 100])
        assert g == pytest.approx(0.75, abs=0.01)

    def test_all_zero(self):
        assert gini([0, 0]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            gini([])

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_bounded(self, values):
        assert 0.0 <= gini(values) <= 1.0 + 1e-9


class TestImbalance:
    def test_balanced_is_one(self):
        assert load_imbalance([3, 3, 3]) == pytest.approx(1.0)

    def test_skewed(self):
        assert load_imbalance([1, 1, 10]) == pytest.approx(10 / 4)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            load_imbalance([])


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["sys", "time"], [["GPFS", 1.5], ["HVAC", 0.5]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "GPFS" in out and "HVAC" in out
        assert len(lines) == 5  # title, header, rule, two rows

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_format_series(self):
        out = format_series("nodes", [1, 2], {"GPFS": [3.0, 4.0], "XFS": [1.0, 2.0]})
        assert "nodes" in out and "GPFS" in out and "XFS" in out
        assert "4" in out

    def test_format_kv(self):
        out = format_kv({"hit rate": 0.5, "files": 10}, title="Summary")
        assert "Summary" in out
        assert "hit rate" in out
        assert "0.5" in out


class TestAsciiChart:
    def chart(self, **kw):
        from repro.analysis import ascii_chart

        return ascii_chart(
            [1, 2, 4, 8],
            {"GPFS": [10, 20, 30, 30], "XFS": [5, 10, 20, 40]},
            **kw,
        )

    def test_contains_markers_and_legend(self):
        out = self.chart(title="T")
        assert out.startswith("T")
        assert "o GPFS" in out and "x XFS" in out
        assert "o" in out and "x" in out

    def test_log_scales_noted(self):
        out = self.chart(log_x=True, log_y=True)
        assert "[log x, log y]" in out

    def test_axis_extremes_labelled(self):
        out = self.chart()
        assert "40" in out and "5" in out  # y extremes
        assert "1" in out and "8" in out  # x extremes

    def test_dimension_validation(self):
        from repro.analysis import ascii_chart

        with pytest.raises(ValueError):
            ascii_chart([], {})
        with pytest.raises(ValueError):
            ascii_chart([1, 2], {"a": [1]})

    def test_log_rejects_nonpositive(self):
        from repro.analysis import ascii_chart

        with pytest.raises(ValueError):
            ascii_chart([0, 1], {"a": [1, 2]}, log_x=True)
        with pytest.raises(ValueError):
            ascii_chart([1, 2], {"a": [0, 2]}, log_y=True)

    def test_flat_series_no_zero_division(self):
        from repro.analysis import ascii_chart

        out = ascii_chart([1, 2, 3], {"flat": [5, 5, 5]})
        assert "o flat" in out
