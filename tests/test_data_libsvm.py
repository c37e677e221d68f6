"""Tests for repro.data.libsvm — multi-label libSVM IO."""

import numpy as np
import pytest

from repro.data.libsvm import read_libsvm, write_libsvm
from repro.data.registry import load_task
from repro.exceptions import DataFormatError
from tests.reference import scipy_csr


@pytest.fixture(scope="module")
def tiny_split():
    return load_task("micro", seed=2).test


class TestRoundTrip:
    def test_with_header(self, tiny_split, tmp_path):
        path = write_libsvm(tiny_split, tmp_path / "data.txt", header=True)
        back = read_libsvm(path)
        assert back.n_samples == tiny_split.n_samples
        assert back.n_features == tiny_split.n_features
        assert back.n_labels == tiny_split.n_labels
        assert np.allclose(
            scipy_csr(back.X).toarray(), scipy_csr(tiny_split.X).toarray(),
            atol=1e-4,
        )
        assert (scipy_csr(back.Y) != scipy_csr(tiny_split.Y)).nnz == 0

    def test_without_header_needs_dims(self, tiny_split, tmp_path):
        path = write_libsvm(tiny_split, tmp_path / "nh.txt", header=False)
        back = read_libsvm(
            path,
            n_features=tiny_split.n_features,
            n_labels=tiny_split.n_labels,
        )
        assert (scipy_csr(back.Y) != scipy_csr(tiny_split.Y)).nnz == 0

    def test_without_header_infers_dims(self, tiny_split, tmp_path):
        path = write_libsvm(tiny_split, tmp_path / "nh.txt", header=False)
        back = read_libsvm(path)
        # Inferred dims are the max observed ids + 1 (<= true dims).
        assert back.n_features <= tiny_split.n_features
        assert back.n_samples == tiny_split.n_samples


    def test_truncated_file_rejected(self, tiny_split, tmp_path):
        """A file cut mid-write does not load as a shorter dataset: the
        header's ``n`` is enforced, and the error names path and counts."""
        path = write_libsvm(tiny_split, tmp_path / "data.txt", header=True)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(
            DataFormatError,
            match=rf"^{path}: header declares {tiny_split.n_samples} samples, "
            r"file holds \d+$",
        ):
            read_libsvm(path)


class TestParsing:
    def test_basic_lines(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("3 5 4\n0,2 1:0.5 3:1.25\n1 0:2\n3 4:0.1 2:0.2\n")
        ds = read_libsvm(path)
        assert ds.n_samples == 3
        assert ds.n_features == 5 and ds.n_labels == 4
        assert scipy_csr(ds.X)[0, 3] == pytest.approx(1.25)
        assert sorted(ds.Y[0:1].indices.tolist()) == [0, 2]

    def test_one_based_ids(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1,2 1:0.5 3:1.0\n")
        ds = read_libsvm(path, zero_based=False, n_features=4, n_labels=4)
        assert scipy_csr(ds.X)[0, 0] == pytest.approx(0.5)
        assert sorted(ds.Y[0:1].indices.tolist()) == [0, 1]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 1:1\n\n1 2:1\n")
        assert read_libsvm(path).n_samples == 2

    def test_malformed_feature_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 notafeature\n")
        with pytest.raises(DataFormatError, match="malformed"):
            read_libsvm(path)

    def test_sample_without_labels_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1:0.5 2:0.5\n")
        with pytest.raises(DataFormatError, match="no labels"):
            read_libsvm(path)

    def test_feature_id_beyond_declared_dims_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 2 2\n0 5:1.0\n")
        with pytest.raises(DataFormatError, match="feature id"):
            read_libsvm(path)

    def test_duplicate_labels_collapse(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0,0,1 1:1\n")
        ds = read_libsvm(path)
        assert ds.Y.nnz == 2
        assert (ds.Y.data == 1.0).all()
