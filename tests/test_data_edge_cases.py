"""Edge-case tests for the data substrate: ambiguous inputs, extremes."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.batching import BatchCursor
from repro.data.dataset import SparseDataset
from repro.data.libsvm import read_libsvm, write_libsvm
from repro.data.synthetic import SyntheticXMLConfig, generate_xml_task
from repro.exceptions import ConfigurationError, DataFormatError


class TestLibsvmAmbiguity:
    def test_three_token_data_line_not_mistaken_for_header(self, tmp_path):
        """A first line like '0,1 2:1 3:1' has 3 whitespace tokens but must
        parse as data, not as an 'n d L' header."""
        path = tmp_path / "f.txt"
        path.write_text("0,1 2:1.0 3:1.0\n2 1:0.5\n")
        ds = read_libsvm(path)
        assert ds.n_samples == 2
        assert sorted(ds.Y[0:1].indices.tolist()) == [0, 1]

    def test_pure_integer_first_line_is_header(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("2 4 3\n0 1:1\n1,2 3:1\n")
        ds = read_libsvm(path)
        assert ds.n_samples == 2
        assert ds.n_features == 4 and ds.n_labels == 3

    def test_header_dims_override_inference(self, tmp_path):
        # Declared dims larger than any observed id must be respected.
        path = tmp_path / "f.txt"
        path.write_text("1 100 50\n3 7:1.5\n")
        ds = read_libsvm(path)
        assert ds.n_features == 100 and ds.n_labels == 50

    def test_explicit_dims_override_header(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 100 50\n3 7:1.5\n")
        ds = read_libsvm(path, n_features=200, n_labels=60)
        assert ds.n_features == 200 and ds.n_labels == 60

    def test_negative_id_after_one_based_shift_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 1:1\n")  # label 0 invalid in one-based data
        with pytest.raises(DataFormatError, match="negative"):
            read_libsvm(path, zero_based=False)

    def test_write_precision_controls_size(self, tmp_path, micro_task):
        coarse = write_libsvm(
            micro_task.test, tmp_path / "c.txt", precision=2
        )
        fine = write_libsvm(
            micro_task.test, tmp_path / "f.txt", precision=9
        )
        assert coarse.stat().st_size < fine.stat().st_size


class TestCursorExtremes:
    def test_batch_larger_than_several_epochs(self, micro_task):
        n = micro_task.train.n_samples
        cursor = BatchCursor(micro_task.train, seed=0)
        batch = cursor.next_batch(3 * n + 5)
        assert batch.size == 3 * n + 5
        counts = np.bincount(batch.indices, minlength=n)
        # Every sample appears 3 or 4 times: epochs stay balanced.
        assert set(np.unique(counts)) <= {3, 4}
        assert cursor.epochs_completed == pytest.approx(3 + 5 / n)

    def test_batch_size_one_stream(self, micro_task):
        cursor = BatchCursor(micro_task.train, seed=0)
        seen = {int(cursor.next_batch(1).indices[0]) for _ in range(50)}
        assert len(seen) == 50  # no repeats inside one epoch

    def test_empty_dataset_rejected(self):
        X = sp.csr_matrix((0, 4), dtype=np.float32)
        Y = sp.csr_matrix((0, 2), dtype=np.float32)
        empty = SparseDataset(X=X, Y=Y)
        with pytest.raises(ConfigurationError):
            BatchCursor(empty)


class TestSyntheticExtremes:
    def test_single_label_per_sample(self):
        cfg = SyntheticXMLConfig(
            n_features=128, n_labels=32, n_train=256, n_test=64,
            avg_features_per_sample=8.0, avg_labels_per_sample=1.0,
            name="single-label", seed=0,
        )
        task = generate_xml_task(cfg)
        assert task.train.labels_per_sample().min() >= 1

    def test_dense_label_regime(self):
        """Delicious-like: many labels per sample still yields a valid
        indicator matrix with no duplicate label entries."""
        cfg = SyntheticXMLConfig(
            n_features=256, n_labels=64, n_train=128, n_test=32,
            avg_features_per_sample=16.0, avg_labels_per_sample=20.0,
            label_neighborhood=32, name="dense-labels", seed=0,
        )
        task = generate_xml_task(cfg)
        assert task.train.avg_labels_per_sample > 8
        assert (task.train.Y.data == 1.0).all()

    def test_feature_space_of_one(self):
        cfg = SyntheticXMLConfig(
            n_features=1, n_labels=4, n_train=32, n_test=8,
            avg_features_per_sample=1.0, avg_labels_per_sample=1.0,
            prototypes_per_label=1, name="one-feature", seed=0,
        )
        task = generate_xml_task(cfg)
        assert task.n_features == 1
        assert task.train.X.nnz > 0
