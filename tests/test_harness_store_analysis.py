"""Tests for repro.harness.store."""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError, DataFormatError
from repro.harness.store import load_trace, save_trace
from repro.harness.traces import Boundary, TracePoint, TrainingTrace
from repro.utils.serialization import (
    load_arrays,
    load_json,
    save_arrays,
    save_json,
)


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def make_trace(accs, dt=1.0, algorithm="A", n=4, telemetry=True):
    trace = TrainingTrace(algorithm=algorithm, dataset="d", n_devices=n)
    for i, acc in enumerate(accs):
        trace.record_point(TracePoint(
            time_s=i * dt, epochs=float(i), updates=i * 10,
            samples=i * 100, accuracy=acc, loss=1.0 / (i + 1),
        ))
    if telemetry:
        n_boundaries = max(len(accs) - 1, 0)
        trace.boundaries = [Boundary((64, 32), True, "updates", 1)] * n_boundaries
    trace.metadata = {"seed": 3, "note": "hello"}
    return trace


class TestSavedFormat:
    """``train --save`` writes the header bytes it wrote when the goldens
    were generated: the four per-boundary columns in their order, then the
    metadata. Regenerate a golden only in a change meant to alter the format."""

    @pytest.mark.parametrize("golden, extra", [
        ("train_trace.json", []),
        ("train_trace_churn.json", ["--churn", "spot-churn"]),
    ])
    def test_train_header_is_byte_identical(
        self, golden, extra, tmp_path, capsys
    ):
        stem = tmp_path / "T"
        assert main([
            "train", "--dataset", "micro", "--gpus", "4", "--seed", "1",
            "--time-budget-s", "0.03", *extra, "--save", str(stem),
        ]) == 0
        capsys.readouterr()
        assert stem.with_suffix(".json").read_bytes() == (
            GOLDEN / golden
        ).read_bytes()


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
        assert loaded.boundaries == original.boundaries
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

    def test_boundary_columns_of_unequal_length_rejected(self, tmp_path):
        """A header whose four per-boundary columns disagree does not load
        as a shorter trace: the error names the file and each length."""
        save_trace(make_trace([0.0] * 9), tmp_path / "run")
        header = tmp_path / "run.json"
        meta = load_json(header)
        meta["perturbation_history"] = []
        meta["staleness_history"] = meta["staleness_history"][:3]
        save_json(header, meta)
        with pytest.raises(
            DataFormatError, match=rf"^{header}: .*\[8, 0, 8, 3\]"
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
        assert loaded.boundaries == trace.boundaries
        assert [p.time_s for p in loaded.points] == pytest.approx(
            [p.time_s for p in trace.points]
        )
