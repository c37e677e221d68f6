"""Plain-text table and series rendering for benchmark/report output.

The benchmark harness reproduces the paper's tables and figures as text:
tables become aligned ASCII grids, figures become per-series rows of
``(x, y)`` samples. Keeping the renderer dependency-free means benches can
print paper-style artifacts in any terminal or CI log.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "format_table",
    "format_series",
    "format_kv",
    "format_sparkline",
    "format_timeline",
]

#: Eight-level block ramp for sparklines (U+2581..U+2588).
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"
#: How every float cell renders.
FLOAT_FORMAT = ".4g"
#: The timeline glyph of an uncovered (idle) column.
IDLE_GLYPH = "."


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, FLOAT_FORMAT)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    Floats are formatted with :data:`FLOAT_FORMAT`; all other values via
    ``str``. Returns the table as a single string (no trailing newline).
    """
    str_rows = [[_cell(v) for v in row] for row in rows]
    ncols = len(headers)
    for i, row in enumerate(str_rows):
        if len(row) != ncols:
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {ncols}: {row!r}"
            )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in str_rows)) if str_rows else len(headers[c])
        for c in range(ncols)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[tuple]],
    *,
    title: Optional[str] = None,
    xlabel: str = "x",
    ylabel: str = "y",
    max_points: Optional[int] = None,
) -> str:
    """Render named ``(x, y)`` series — the text analogue of a figure.

    ``series`` maps a curve label (e.g. ``"Adaptive SGD (4 GPUs)"``) to its
    samples. When ``max_points`` is given, each curve is decimated evenly to
    at most that many points so long training traces stay readable.
    """
    lines = []
    if title:
        lines.append(title)
    for name, points in series.items():
        pts = list(points)
        if max_points is not None and len(pts) > max_points:
            step = (len(pts) - 1) / (max_points - 1)
            pts = [pts[round(i * step)] for i in range(max_points)]
        lines.append(f"  {name}  [{xlabel} -> {ylabel}]")
        rendered = ", ".join(
            f"({_cell(x)}, {_cell(y)})" for x, y in pts
        )
        lines.append(f"    {rendered}")
    return "\n".join(lines)


def format_timeline(
    lanes: Mapping[str, Sequence[tuple]],
    *,
    start: float,
    end: float,
    width: int = 64,
    title: Optional[str] = None,
    legend: Optional[Mapping[str, str]] = None,
) -> str:
    """Render labeled interval lanes as an ASCII timeline.

    ``lanes`` maps a lane label (e.g. ``"gpu0"``) to ``(t0, t1, glyph)``
    intervals on a shared ``[start, end]`` axis. Each lane becomes one row
    of ``width`` characters; uncovered columns show :data:`IDLE_GLYPH`. Later
    intervals overwrite earlier ones, so callers can layer nested spans
    (merge then all-reduce) in emission order. ``legend`` maps glyphs to
    descriptions for the footer line.
    """
    if width < 8:
        raise ConfigurationError(f"timeline width must be >= 8, got {width}")
    span = end - start
    lines = []
    if title:
        lines.append(title)
    label_width = max((len(str(label)) for label in lanes), default=0)
    for label, intervals in lanes.items():
        row = [IDLE_GLYPH] * width
        for t0, t1, glyph in intervals:
            if span <= 0:
                c0, c1 = 0, width
            else:
                c0 = int((t0 - start) / span * width)
                c1 = int((t1 - start) / span * width)
                if c1 <= c0:
                    c1 = c0 + 1  # zero-width intervals still leave a mark
            c0 = max(0, min(c0, width - 1))
            c1 = max(c0 + 1, min(c1, width))
            glyph_char = (glyph or IDLE_GLYPH)[0]
            for c in range(c0, c1):
                row[c] = glyph_char
        lines.append(f"{str(label).ljust(label_width)} |{''.join(row)}|")
    axis_left = f"{start:.4g}s"
    axis_right = f"{end:.4g}s"
    pad = width - len(axis_left) - len(axis_right)
    lines.append(
        f"{' ' * label_width}  {axis_left}{' ' * max(1, pad)}{axis_right}"
    )
    if legend:
        lines.append(
            "   ".join(f"{glyph}={name}" for glyph, name in legend.items())
            + f"   {IDLE_GLYPH}=idle"
        )
    return "\n".join(lines)


def format_sparkline(
    values: Sequence[float], *, width: Optional[int] = None
) -> str:
    """Render ``values`` as a one-line block-character sparkline.

    Values are min-max scaled onto the 8-level block ramp; a constant (or
    single-value) series renders as the middle block so it reads as "flat"
    rather than "empty". ``width`` caps the output by striding through the
    series (always keeping the last value — the most recent run is the one
    the reader is looking for).
    """
    values = [float(v) for v in values]
    if not values:
        return ""
    if width is not None and width > 0 and len(values) > width:
        stride = len(values) / width
        picked = [values[int(i * stride)] for i in range(width - 1)]
        picked.append(values[-1])
        values = picked
    lo, hi = min(values), max(values)
    if hi <= lo:
        return SPARK_BLOCKS[len(SPARK_BLOCKS) // 2] * len(values)
    top = len(SPARK_BLOCKS) - 1
    return "".join(
        SPARK_BLOCKS[int(round((v - lo) / (hi - lo) * top))] for v in values
    )


def format_kv(pairs: Mapping[str, Any]) -> str:
    """Render a mapping as aligned ``key : value`` lines."""
    if not pairs:
        return ""
    width = max(len(str(k)) for k in pairs)
    return "\n".join(
        f"{str(k).ljust(width)} : {_cell(v)}" for k, v in pairs.items()
    )
