"""Dependency-free ASCII charts for terminal figure output.

The tables printed by the benchmarks carry the numbers; these charts
carry the *shape* — saturation plateaus and crossovers are the paper's
actual story, and they read at a glance as a curve.  No matplotlib
required (the environment is offline); pure text.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

__all__ = ["ascii_chart"]

_MARKERS = "ox+*#%@&"
#: plot area, in characters
WIDTH = 60
HEIGHT = 16


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 10_000 or abs(v) < 0.01:
        return f"{v:.1e}"
    if abs(v) >= 100:
        return f"{v:.0f}"
    return f"{v:.3g}"


def ascii_chart(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    log_x: bool = False,
    log_y: bool = False,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render a multi-series scatter/line chart as text.

    Each series gets a marker character; overlapping points show the
    later series' marker.  Log scales make the paper's saturation
    plateaus and linear-scaling lines visually obvious.
    """
    if not x_values or not series:
        raise ValueError("need at least one x value and one series")
    for name, ys in series.items():
        if len(ys) != len(x_values):
            raise ValueError(f"series {name!r} length mismatch")

    xs = [float(x) for x in x_values]
    all_y = [float(y) for ys in series.values() for y in ys]
    if log_x and min(xs) <= 0:
        raise ValueError("log_x requires positive x values")
    if log_y and min(all_y) <= 0:
        raise ValueError("log_y requires positive y values")

    def tx(v: float) -> float:
        return math.log10(v) if log_x else v

    def ty(v: float) -> float:
        return math.log10(v) if log_y else v

    x_lo, x_hi = tx(min(xs)), tx(max(xs))
    y_lo, y_hi = ty(min(all_y)), ty(max(all_y))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    width, height = WIDTH, HEIGHT
    grid = [[" "] * width for _ in range(height)]
    for s_idx, (name, ys) in enumerate(series.items()):
        marker = _MARKERS[s_idx % len(_MARKERS)]
        cols_rows = []
        for x, y in zip(xs, ys):
            col = round((tx(x) - x_lo) / x_span * (width - 1))
            row = round((ty(float(y)) - y_lo) / y_span * (height - 1))
            cols_rows.append((col, height - 1 - row))
        # connect consecutive points with a sparse line
        for (c0, r0), (c1, r1) in zip(cols_rows, cols_rows[1:]):
            steps = max(abs(c1 - c0), abs(r1 - r0), 1)
            for k in range(steps + 1):
                c = round(c0 + (c1 - c0) * k / steps)
                r = round(r0 + (r1 - r0) * k / steps)
                if grid[r][c] == " ":
                    grid[r][c] = "."
        for c, r in cols_rows:
            grid[r][c] = marker

    y_hi_s, y_lo_s = _fmt(max(all_y)), _fmt(min(all_y))
    gutter = max(len(y_hi_s), len(y_lo_s)) + 1
    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(grid):
        if r == 0:
            label = y_hi_s
        elif r == height - 1:
            label = y_lo_s
        else:
            label = ""
        lines.append(f"{label.rjust(gutter)} |{''.join(row)}")
    lines.append(" " * gutter + " +" + "-" * width)
    x_lo_s, x_hi_s = _fmt(min(xs)), _fmt(max(xs))
    pad = width - len(x_lo_s) - len(x_hi_s)
    lines.append(" " * (gutter + 2) + x_lo_s + " " * max(pad, 1) + x_hi_s)
    scale_note = []
    if log_x:
        scale_note.append("log x")
    if log_y:
        scale_note.append("log y")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    suffix = f"   [{', '.join(scale_note)}]" if scale_note else ""
    axis = f"{x_label}" + (f" vs {y_label}" if y_label else "")
    lines.append(" " * (gutter + 2) + (axis + "   " if axis else "") + legend + suffix)
    return "\n".join(lines)
