"""Tests for repro.utils.plots — ASCII charts."""

import pytest

from repro.utils.plots import ascii_plot


class TestAsciiPlot:
    def test_axes_and_legend(self):
        out = ascii_plot(
            {"adaptive": [(0, 0.0), (1, 0.5), (2, 0.8)]},
            xlabel="time", ylabel="acc",
        )
        assert "time" in out
        assert "* adaptive" in out
        assert "0.8" in out  # y-max tick

    def test_multiple_series_distinct_markers(self):
        out = ascii_plot({
            "a": [(0, 0.0), (1, 1.0)],
            "b": [(0, 1.0), (1, 0.0)],
        })
        assert "* a" in out and "o b" in out
        body = out.split("\n")
        assert any("*" in line for line in body)
        assert any("o" in line for line in body)

    def test_rising_curve_orientation(self):
        """A rising series must put its marker high-right, low-left."""
        out = ascii_plot({"r": [(0, 0.0), (10, 1.0)]}, width=20, height=6)
        rows = [line for line in out.splitlines() if "|" in line]
        top, bottom = rows[0], rows[-1]
        assert top.rstrip().endswith("*")
        assert "*" in bottom.split("|")[1][:3]

    def test_empty_series_noted(self):
        out = ascii_plot({"a": [(0, 1)], "empty": []})
        assert "no data" in out

    def test_all_empty(self):
        assert "(no data)" in ascii_plot({"a": []})

    def test_constant_values_handled(self):
        out = ascii_plot({"flat": [(0, 0.5), (1, 0.5)]})
        assert "flat" in out

    def test_too_small_canvas_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({"a": [(0, 1)]}, width=5, height=2)

    def test_line_lengths_consistent(self):
        out = ascii_plot({"a": [(0, 0), (5, 2), (9, 1)]}, width=30, height=8)
        plot_rows = [line for line in out.splitlines() if "|" in line]
        assert len({len(r) for r in plot_rows}) == 1
