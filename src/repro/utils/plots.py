"""ASCII line charts: terminal renderings of the paper's figures.

:func:`ascii_plot` draws one or more ``(x, y)`` series on a character
canvas with axes, tick labels, and a legend — so the benches can show the
actual *shape* of Figure 4/5/6 curves in any terminal or CI log, not just
sample lists. Pure stdlib + numpy, no plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["ascii_plot"]

#: Glyphs assigned to series, in order.
_MARKERS = "*o+x#@%&"


def _format_tick(value: float) -> str:
    return f"{value:.3g}"


def ascii_plot(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    *,
    width: int = 64,
    height: int = 16,
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Render named ``(x, y)`` series as an ASCII chart.

    Points are plotted on a shared axis range with linear interpolation
    between samples, one marker glyph per series, and a legend. Series with
    no points are listed in the legend as "(no data)".
    """
    if width < 16 or height < 4:
        raise ValueError(f"canvas too small: {width}x{height}")
    populated = {
        name: np.asarray(points, dtype=float)
        for name, points in series.items()
        if len(points) > 0
    }
    if not populated:
        return "(no data)"

    all_x = np.concatenate([p[:, 0] for p in populated.values()])
    all_y = np.concatenate([p[:, 1] for p in populated.values()])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    canvas = [[" "] * width for _ in range(height)]

    def to_col(x: float) -> int:
        return int(round((x - x_lo) / (x_hi - x_lo) * (width - 1)))

    def to_row(y: float) -> int:
        return (height - 1) - int(
            round((y - y_lo) / (y_hi - y_lo) * (height - 1))
        )

    for index, (name, points) in enumerate(populated.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        order = np.argsort(points[:, 0], kind="stable")
        pts = points[order]
        # Interpolate along columns so curves read as lines, not dots.
        cols = [to_col(x) for x in pts[:, 0]]
        for (c0, (x0, y0)), (c1, (x1, y1)) in zip(
            zip(cols, pts), zip(cols[1:], pts[1:])
        ):
            span = max(c1 - c0, 1)
            for c in range(c0, c1 + 1):
                t = (c - c0) / span
                y = y0 + t * (y1 - y0)
                canvas[to_row(y)][c] = marker
        for c, (_, y) in zip(cols, pts):
            canvas[to_row(y)][c] = marker

    gutter = max(len(_format_tick(y_hi)), len(_format_tick(y_lo)))
    lines: List[str] = []
    for r, row in enumerate(canvas):
        if r == 0:
            label = _format_tick(y_hi).rjust(gutter)
        elif r == height - 1:
            label = _format_tick(y_lo).rjust(gutter)
        else:
            label = " " * gutter
        lines.append(f"{label} |{''.join(row)}")
    x_axis = f"{' ' * gutter} +{'-' * width}"
    lines.append(x_axis)
    left = _format_tick(x_lo)
    right = _format_tick(x_hi)
    middle = xlabel.center(width - len(left) - len(right))
    lines.append(f"{' ' * gutter}  {left}{middle}{right}")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}"
        for i, name in enumerate(populated)
    )
    empties = [name for name, pts in series.items() if len(pts) == 0]
    if empties:
        legend += "   " + "   ".join(f"({name}: no data)" for name in empties)
    lines.append(f"{ylabel}: {legend}")
    return "\n".join(lines)
