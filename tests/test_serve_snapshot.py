"""Tests for repro.serve.snapshot — the versioned train → deploy format."""

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SnapshotError
from repro.serve.snapshot import SNAPSHOT_FORMAT, SNAPSHOT_VERSION, ModelSnapshot
from repro.sparse.mlp import MLPArchitecture, SparseMLP


@pytest.fixture()
def snapshot():
    arch = MLPArchitecture(n_features=40, n_labels=12, hidden=(8,))
    state = SparseMLP(arch).init_state(seed=3)
    return ModelSnapshot(
        arch=arch, state=state, meta={"dataset": "unit", "algorithm": "test"}
    )


class TestRoundTrip:
    def test_bit_identical(self, snapshot, tmp_path):
        snapshot.save(tmp_path / "m")
        back = ModelSnapshot.load(tmp_path / "m")
        assert np.array_equal(back.state.vector, snapshot.state.vector)
        assert back.arch.layer_dims == snapshot.arch.layer_dims

    def test_meta_round_trips(self, snapshot, tmp_path):
        snapshot.save(tmp_path / "m")
        back = ModelSnapshot.load(tmp_path / "m")
        assert back.meta == {"dataset": "unit", "algorithm": "test"}

    def test_save_returns_header_path(self, snapshot, tmp_path):
        header = snapshot.save(tmp_path / "m")
        assert header == tmp_path / "m.snapshot.json"
        assert header.exists()
        assert (tmp_path / "m.snapshot.npz").exists()

    def test_stem_accepts_either_suffix(self, snapshot, tmp_path):
        snapshot.save(tmp_path / "m.snapshot.json")
        for spelling in ("m", "m.snapshot.json", "m.snapshot.npz"):
            back = ModelSnapshot.load(tmp_path / spelling)
            assert np.array_equal(back.state.vector, snapshot.state.vector)

    def test_header_is_strict_json(self, snapshot, tmp_path):
        header = snapshot.save(tmp_path / "m")
        doc = json.loads(header.read_text())
        assert doc["format"] == SNAPSHOT_FORMAT
        assert doc["version"] == SNAPSHOT_VERSION
        assert doc["arch"]["hidden"] == [8]
        assert doc["checksum"]["n_params"] == snapshot.state.n_params


class TestValidation:
    def test_spec_mismatch_rejected_at_construction(self):
        arch = MLPArchitecture(n_features=40, n_labels=12, hidden=(8,))
        other = MLPArchitecture(n_features=40, n_labels=12, hidden=(16,))
        state = SparseMLP(other).init_state(seed=0)
        with pytest.raises(SnapshotError, match="does not match"):
            ModelSnapshot(arch=arch, state=state)

    def test_missing_header(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot header"):
            ModelSnapshot.load(tmp_path / "ghost")

    def test_missing_arrays(self, snapshot, tmp_path):
        snapshot.save(tmp_path / "m")
        (tmp_path / "m.snapshot.npz").unlink()
        with pytest.raises(SnapshotError, match="arrays missing"):
            ModelSnapshot.load(tmp_path / "m")

    def test_header_without_arrays_reads_the_default_name(
        self, snapshot, tmp_path
    ):
        header = snapshot.save(tmp_path / "m")
        doc = json.loads(header.read_text())
        del doc["arrays"]
        header.write_text(json.dumps(doc))
        back = ModelSnapshot.load(tmp_path / "m")
        assert np.array_equal(back.state.vector, snapshot.state.vector)

    def test_arrays_may_name_another_file_beside_the_header(
        self, snapshot, tmp_path
    ):
        header = snapshot.save(tmp_path / "m")
        (tmp_path / "m.snapshot.npz").rename(tmp_path / "weights.npz")
        doc = json.loads(header.read_text())
        doc["arrays"] = "weights.npz"
        header.write_text(json.dumps(doc))
        back = ModelSnapshot.load(tmp_path / "m")
        assert np.array_equal(back.state.vector, snapshot.state.vector)

    @pytest.mark.parametrize(
        "arrays", ["", ".", "..", "a/b.npz", "../m.snapshot.npz", 7, None]
    )
    def test_arrays_must_be_a_plain_file_name(self, snapshot, tmp_path, arrays):
        """Not a path, not the directory itself, not its parent: a typed
        error naming the header."""
        (tmp_path / "a").mkdir()
        header = snapshot.save(tmp_path / "m")
        snapshot.save(tmp_path / "a" / "b")
        (tmp_path / "a" / "b.snapshot.npz").rename(tmp_path / "a" / "b.npz")
        doc = json.loads(header.read_text())
        doc["arrays"] = arrays
        header.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="is not a file name") as err:
            ModelSnapshot.load(tmp_path / "m")
        assert str(err.value).startswith(f"{header}: ")

    def test_wrong_format_tag(self, snapshot, tmp_path):
        header = snapshot.save(tmp_path / "m")
        doc = json.loads(header.read_text())
        doc["format"] = "something-else"
        header.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="not a"):
            ModelSnapshot.load(tmp_path / "m")

    def test_future_version_rejected(self, snapshot, tmp_path):
        header = snapshot.save(tmp_path / "m")
        doc = json.loads(header.read_text())
        doc["version"] = SNAPSHOT_VERSION + 1
        header.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="version"):
            ModelSnapshot.load(tmp_path / "m")

    def test_tampered_norm_rejected(self, snapshot, tmp_path):
        header = snapshot.save(tmp_path / "m")
        doc = json.loads(header.read_text())
        doc["checksum"]["l2_norm"] *= 1.5
        header.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="L2 norm"):
            ModelSnapshot.load(tmp_path / "m")

    def test_mismatched_arrays_rejected(self, snapshot, tmp_path):
        """A header pointing at a different model's arrays must not load."""
        snapshot.save(tmp_path / "m")
        other_arch = MLPArchitecture(n_features=40, n_labels=12, hidden=(8,))
        other = ModelSnapshot(
            arch=other_arch, state=SparseMLP(other_arch).init_state(seed=99)
        )
        other.save(tmp_path / "other")
        npz = (tmp_path / "other.snapshot.npz").read_bytes()
        (tmp_path / "m.snapshot.npz").write_bytes(npz)
        with pytest.raises(SnapshotError):
            ModelSnapshot.load(tmp_path / "m")


class TestDescribe:
    def test_describe_matches_header(self, snapshot):
        doc = snapshot.describe()
        assert doc["n_features"] == 40
        assert doc["n_labels"] == 12
        assert doc["n_params"] == snapshot.state.n_params
        assert doc["meta"]["dataset"] == "unit"


class TestTrainerSaveSnapshot:
    def test_before_any_run_rejected(self, micro_task, het_server):
        from repro.api import make_trainer

        trainer = make_trainer(
            "adaptive", task=micro_task, server=het_server, hidden=(16,)
        )
        with pytest.raises(ConfigurationError, match="checkpoint"):
            trainer.save_snapshot("nope")

    def test_trained_model_round_trips(self, micro_task, het_server, tmp_path):
        from repro.api import make_trainer

        trainer = make_trainer(
            "adaptive", task=micro_task, server=het_server, hidden=(16,)
        )
        trainer.run(time_budget_s=0.02)
        header = trainer.save_snapshot(tmp_path / "trained", note="unit")
        back = ModelSnapshot.load(header)
        assert np.array_equal(back.state.vector, trainer.final_state.vector)
        assert back.meta["algorithm"] == trainer.algorithm
        assert back.meta["dataset"] == micro_task.name
        assert back.meta["note"] == "unit"
