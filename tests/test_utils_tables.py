"""Tests for repro.utils.tables — text table/series rendering."""

import pytest

from repro.utils.tables import (
    format_kv,
    format_series,
    format_table,
    format_timeline,
)


class TestFormatTable:
    def test_alignment_and_header(self):
        out = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", "+"}
        # All rows have equal width.
        assert len({len(line) for line in lines}) == 1

    def test_title_line(self):
        out = format_table(["h"], [[1]], title="My Title")
        assert out.splitlines()[0] == "My Title"

    def test_bool_rendering(self):
        out = format_table(["flag"], [[True], [False]])
        assert "yes" in out and "no" in out

    def test_empty_rows_ok(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="row 0"):
            format_table(["a", "b"], [[1]])


class TestFormatSeries:
    def test_basic_series(self):
        out = format_series({"curve": [(0, 0.1), (1, 0.2)]}, xlabel="t", ylabel="acc")
        assert "curve" in out
        assert "(0, 0.1)" in out and "(1, 0.2)" in out

    def test_decimation_keeps_endpoints(self):
        pts = [(i, i * 0.1) for i in range(100)]
        out = format_series({"c": pts}, max_points=5)
        assert "(0, 0)" in out
        assert "(99," in out
        # exactly 5 points rendered
        assert out.count("(") == 5

    def test_no_decimation_below_limit(self):
        pts = [(0, 1), (1, 2)]
        out = format_series({"c": pts}, max_points=10)
        assert out.count("(") == 2

    def test_multiple_series(self):
        out = format_series({"a": [(0, 1)], "b": [(0, 2)]})
        assert "a" in out and "b" in out


class TestFormatTimeline:
    def test_lane_rows_and_axis(self):
        out = format_timeline(
            {"gpu0": [(0.0, 5.0, "#")], "gpu1": [(5.0, 10.0, "#")]},
            start=0.0, end=10.0, width=10,
        )
        lines = out.splitlines()
        assert lines[0] == "gpu0 |#####.....|"
        assert lines[1] == "gpu1 |.....#####|"
        assert lines[2].strip().startswith("0s")
        assert lines[2].strip().endswith("10s")

    def test_later_intervals_overwrite(self):
        out = format_timeline(
            {"driver": [(0.0, 10.0, "M"), (2.0, 4.0, "A")]},
            start=0.0, end=10.0, width=10,
        )
        assert "MMAAMMMMMM" in out

    def test_zero_width_interval_leaves_a_mark(self):
        out = format_timeline(
            {"lane": [(5.0, 5.0, "x")]}, start=0.0, end=10.0, width=10,
        )
        assert "x" in out

    def test_zero_span_axis(self):
        out = format_timeline(
            {"lane": [(0.0, 0.0, "#")]}, start=0.0, end=0.0, width=8,
        )
        assert "########" in out

    def test_out_of_range_intervals_clamped(self):
        out = format_timeline(
            {"lane": [(-5.0, 20.0, "#")]}, start=0.0, end=10.0, width=10,
        )
        assert "##########" in out

    def test_title_and_legend(self):
        out = format_timeline(
            {"gpu0": [(0.0, 1.0, "#")]}, start=0.0, end=1.0, width=8,
            title="Utilization", legend={"#": "compute"},
        )
        lines = out.splitlines()
        assert lines[0] == "Utilization"
        assert lines[-1] == "#=compute   .=idle"

    def test_narrow_width_rejected(self):
        with pytest.raises(ValueError):
            format_timeline({}, start=0.0, end=1.0, width=4)

    def test_empty_lanes_render_axis_only(self):
        out = format_timeline({}, start=0.0, end=1.0, width=8)
        assert out.splitlines()


class TestFormatKv:
    def test_alignment(self):
        out = format_kv({"a": 1, "long-key": 2.5})
        lines = out.splitlines()
        assert lines[0].index(":") == lines[1].index(":")

    def test_empty(self):
        assert format_kv({}) == ""
