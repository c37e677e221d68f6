"""Tests for repro.harness.traces and repro.harness.tta."""

import pytest

from repro.exceptions import ConfigurationError
from repro.harness.traces import TracePoint, TrainingTrace
from repro.harness.tta import (
    default_targets,
    speedup,
    tta_table,
)


def make_trace(accs, dt=1.0, algorithm="A", n=4):
    trace = TrainingTrace(algorithm=algorithm, dataset="d", n_devices=n)
    for i, acc in enumerate(accs):
        trace.record_point(
            TracePoint(
                time_s=i * dt, epochs=float(i), updates=i * 10,
                samples=i * 100, accuracy=acc, loss=1.0 / (i + 1),
            )
        )
    return trace


class TestTrainingTrace:
    def test_basic_metrics(self):
        trace = make_trace([0.0, 0.3, 0.5, 0.45])
        assert trace.final_accuracy == 0.45
        assert trace.best_accuracy == 0.5
        assert trace.total_time == 3.0
        assert trace.total_epochs == 3.0
        assert len(trace) == 4

    def test_time_to_accuracy(self):
        trace = make_trace([0.0, 0.3, 0.5])
        assert trace.time_to_accuracy(0.3) == 1.0
        assert trace.time_to_accuracy(0.31) == 2.0
        assert trace.time_to_accuracy(0.9) is None

    def test_epochs_to_accuracy(self):
        trace = make_trace([0.0, 0.3, 0.5])
        assert trace.epochs_to_accuracy(0.5) == 2.0

    def test_accuracy_at_time_is_running_best(self):
        trace = make_trace([0.0, 0.5, 0.3])
        assert trace.accuracy_at_time(0.5) == 0.0
        assert trace.accuracy_at_time(1.0) == 0.5
        assert trace.accuracy_at_time(10.0) == 0.5  # best so far, not last

    def test_time_regression_rejected(self):
        trace = make_trace([0.1])
        with pytest.raises(ConfigurationError):
            trace.record_point(
                TracePoint(-1.0, 0.0, 0, 0, 0.2, 1.0)
            )

    def test_series_axes(self):
        trace = make_trace([0.0, 0.4])
        assert trace.series("time", "accuracy") == [(0.0, 0.0), (1.0, 0.4)]
        assert trace.series("epochs", "loss")[1] == (1.0, 0.5)
        with pytest.raises(ConfigurationError):
            trace.series("bogus", "accuracy")

    def test_batch_size_series(self):
        trace = make_trace([0.0, 0.4])
        trace.batch_size_history = [(64, 32), (70, 30)]
        assert trace.batch_size_series(0) == [(0.0, 64.0), (1.0, 70.0)]
        assert trace.batch_size_series(1)[1] == (1.0, 30.0)
        with pytest.raises(ConfigurationError):
            trace.batch_size_series(5)

    def test_perturbation_frequency(self):
        trace = make_trace([0.0])
        trace.perturbation_history = [True, False, True, True]
        assert trace.perturbation_frequency() == 0.75
        assert make_trace([0.0]).perturbation_frequency() == 0.0

    def test_label(self):
        assert make_trace([0.1], n=4).label() == "A (4 GPUs)"
        assert make_trace([0.1], n=1).label() == "A (1 GPU)"

    def test_empty_trace_defaults(self):
        trace = TrainingTrace(algorithm="A", dataset="d", n_devices=1)
        assert trace.final_accuracy == 0.0
        assert trace.best_accuracy == 0.0
        assert trace.total_time == 0.0


class TestDefaultTargets:
    def test_fractions_of_overall_best(self):
        traces = [make_trace([0.0, 0.4]), make_trace([0.0, 0.8])]
        targets = default_targets(traces, fractions=(0.5, 1.0))
        assert targets == [0.4, 0.8]

    def test_no_positive_accuracy_rejected(self):
        with pytest.raises(ConfigurationError):
            default_targets([make_trace([0.0, 0.0])])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            default_targets([])


class TestTtaTable:
    def test_entries_per_trace_and_target(self):
        traces = [make_trace([0.0, 0.5], algorithm="A"),
                  make_trace([0.0, 0.2], algorithm="B")]
        entries = tta_table(traces, targets=[0.3])
        assert len(entries) == 2
        a, b = entries
        assert a.reached and a.time_s == 1.0
        assert not b.reached and b.time_s is None


class TestSpeedup:
    def test_ratio(self):
        slow = make_trace([0.0, 0.0, 0.0, 0.5], dt=1.0)
        fast = make_trace([0.0, 0.5], dt=1.0)
        assert speedup(slow, fast, 0.5) == pytest.approx(3.0)

    def test_unreached_returns_none(self):
        a = make_trace([0.0, 0.5])
        b = make_trace([0.0, 0.1])
        assert speedup(a, b, 0.5) is None
