"""Tests for repro.harness.store."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataFormatError
from repro.harness.store import load_trace, save_trace
from repro.harness.traces import TracePoint, TrainingTrace
from repro.utils.serialization import (
    load_arrays,
    load_json,
    save_arrays,
    save_json,
)


def make_trace(accs, dt=1.0, algorithm="A", n=4, telemetry=True):
    trace = TrainingTrace(algorithm=algorithm, dataset="d", n_devices=n)
    for i, acc in enumerate(accs):
        trace.record_point(TracePoint(
            time_s=i * dt, epochs=float(i), updates=i * 10,
            samples=i * 100, accuracy=acc, loss=1.0 / (i + 1),
        ))
    if telemetry:
        boundaries = max(len(accs) - 1, 0)
        trace.batch_size_history = [(64, 32)] * boundaries
        trace.perturbation_history = [True] * boundaries
        trace.merge_branch_history = ["updates"] * boundaries
        trace.staleness_history = [1] * boundaries
    trace.metadata = {"seed": 3, "note": "hello"}
    return trace


class TestTraceRoundTrip:
    def test_full_round_trip(self, tmp_path):
        original = make_trace([0.0, 0.3, 0.5, 0.45])
        save_trace(original, tmp_path / "run")
        loaded = load_trace(tmp_path / "run")
        assert loaded.algorithm == original.algorithm
        assert loaded.n_devices == original.n_devices
        assert [p.accuracy for p in loaded.points] == [
            p.accuracy for p in original.points
        ]
        assert [p.updates for p in loaded.points] == [
            p.updates for p in original.points
        ]
        assert loaded.batch_size_history == original.batch_size_history
        assert loaded.perturbation_history == original.perturbation_history
        assert loaded.staleness_history == original.staleness_history
        assert loaded.metadata["seed"] == 3

    def test_metrics_survive_round_trip(self, tmp_path):
        original = make_trace([0.0, 0.3, 0.5])
        save_trace(original, tmp_path / "run")
        loaded = load_trace(tmp_path / "run")
        assert loaded.time_to_accuracy(0.4) == original.time_to_accuracy(0.4)
        assert loaded.best_accuracy == original.best_accuracy

    def test_unserializable_metadata_rejected(self, tmp_path):
        trace = make_trace([0.1])
        trace.metadata["weird"] = object()
        with pytest.raises(DataFormatError, match="weird"):
            save_trace(trace, tmp_path / "run")

    def test_non_finite_metadata_rejected(self, tmp_path):
        trace = make_trace([0.1])
        trace.metadata["bad"] = float("nan")
        with pytest.raises(DataFormatError, match="bad"):
            save_trace(trace, tmp_path / "run")

    def test_path_metadata_round_trips_as_string(self, tmp_path):
        from pathlib import Path

        trace = make_trace([0.1])
        trace.metadata["source"] = tmp_path / "origin.libsvm"
        save_trace(trace, tmp_path / "run")
        loaded = load_trace(tmp_path / "run")
        assert loaded.metadata["source"] == str(tmp_path / "origin.libsvm")
        assert isinstance(loaded.metadata["source"], str)
        # Nested containers go through the same conversion.
        trace.metadata["source"] = {"paths": [Path("a"), Path("b")]}
        save_trace(trace, tmp_path / "run2")
        loaded = load_trace(tmp_path / "run2")
        assert loaded.metadata["source"] == {"paths": ["a", "b"]}

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_trace(tmp_path / "nothing")

    def test_arrays_of_unequal_length_rejected(self, tmp_path):
        save_trace(make_trace([0.0, 0.3, 0.5]), tmp_path / "run")
        npz = tmp_path / "run.npz"
        arrays = dict(load_arrays(npz))
        arrays["loss"] = arrays["loss"][:1]
        save_arrays(npz, arrays)
        with pytest.raises(DataFormatError, match=f"^{npz}: .*length"):
            load_trace(tmp_path / "run")

    def test_header_missing_a_field_rejected(self, tmp_path):
        save_trace(make_trace([0.0, 0.3]), tmp_path / "run")
        header = tmp_path / "run.json"
        meta = load_json(header)
        del meta["batch_size_history"]
        save_json(header, meta)
        with pytest.raises(
            DataFormatError, match=f"^{header}: .*batch_size_history"
        ):
            load_trace(tmp_path / "run")

    def test_header_that_is_not_an_object_rejected(self, tmp_path):
        save_trace(make_trace([0.0, 0.3]), tmp_path / "run")
        header = tmp_path / "run.json"
        save_json(header, [1, 2])
        with pytest.raises(DataFormatError, match=f"^{header}: .*list"):
            load_trace(tmp_path / "run")

    def test_real_trainer_trace_round_trips(self, tmp_path, micro_task, het_server):
        from repro.core.adaptive import AdaptiveSGDTrainer
        from repro.core.config import AdaptiveSGDConfig

        cfg = AdaptiveSGDConfig(b_max=64, base_lr=0.2, mega_batch_batches=8)
        trace = AdaptiveSGDTrainer(
            micro_task, het_server, cfg, hidden=(32,), init_seed=1,
            data_seed=1, eval_samples=64,
        ).run(time_budget_s=0.01)
        save_trace(trace, tmp_path / "real")
        loaded = load_trace(tmp_path / "real")
        assert loaded.batch_size_history == trace.batch_size_history
        assert [p.time_s for p in loaded.points] == pytest.approx(
            [p.time_s for p in trace.points]
        )
