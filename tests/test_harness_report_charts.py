"""Tests for the report renderer's chart integration."""

from repro.harness.report import render_tta_curves
from repro.harness.traces import TracePoint, TrainingTrace


def make_trace(accs, algorithm="A", n=4):
    trace = TrainingTrace(algorithm=algorithm, dataset="d", n_devices=n)
    for i, acc in enumerate(accs):
        trace.record_point(TracePoint(
            time_s=float(i), epochs=float(i), updates=i, samples=i,
            accuracy=acc, loss=0.1,
        ))
    return trace


class TestChartIntegration:
    def test_chart_included_by_default(self):
        traces = {"a": make_trace([0.0, 0.2, 0.5])}
        out = render_tta_curves(traces)
        # The chart's axis gutter + legend marker are present.
        assert " |" in out
        assert "* A (4 GPUs)" in out

    def test_epoch_axis_labelled(self):
        traces = {"a": make_trace([0.0, 0.2])}
        out = render_tta_curves(traces, x="epochs")
        assert "epochs" in out

    def test_multiple_traces_share_canvas(self):
        traces = {
            "a": make_trace([0.0, 0.3], algorithm="A"),
            "b": make_trace([0.0, 0.6], algorithm="B", n=1),
        }
        out = render_tta_curves(traces)
        assert "A (4 GPUs)" in out and "B (1 GPU)" in out
