"""Tests for repro.data.dataset containers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.dataset import SparseDataset, XMLTask
from repro.exceptions import DataFormatError
from tests.reference import scipy_csr


def make_split(n=6, d=10, l=4, seed=0):
    rng = np.random.default_rng(seed)
    X = sp.random(n, d, density=0.3, random_state=rng, format="csr", dtype=np.float32)
    # Guarantee one label per sample.
    rows = np.arange(n)
    cols = rng.integers(0, l, size=n)
    Y = sp.csr_matrix(
        (np.ones(n, dtype=np.float32), (rows, cols)), shape=(n, l)
    )
    return SparseDataset(X=X, Y=Y, name="t")


class TestSparseDataset:
    def test_shapes(self):
        ds = make_split()
        assert ds.n_samples == 6 and ds.n_features == 10 and ds.n_labels == 4
        assert len(ds) == 6

    def test_mismatched_rows_rejected(self):
        ds = make_split()
        with pytest.raises(DataFormatError, match="samples"):
            SparseDataset(X=ds.X, Y=ds.Y[:4])

    def test_sample_without_label_rejected(self):
        X = sp.csr_matrix(np.ones((2, 3), dtype=np.float32))
        Y = sp.csr_matrix(
            (np.ones(1, dtype=np.float32), ([0], [0])), shape=(2, 2)
        )
        with pytest.raises(DataFormatError, match="no labels"):
            SparseDataset(X=X, Y=Y)

    def test_nonbinary_labels_rejected(self):
        X = sp.csr_matrix(np.ones((1, 2), dtype=np.float32))
        Y = sp.csr_matrix(np.array([[2.0, 0.0]], dtype=np.float32))
        with pytest.raises(DataFormatError, match="binary"):
            SparseDataset(X=X, Y=Y)

    def test_dense_input_rejected(self):
        with pytest.raises(DataFormatError):
            SparseDataset(X=np.ones((2, 2)), Y=sp.csr_matrix(np.eye(2)))

    def test_avg_stats(self):
        ds = make_split()
        assert ds.avg_features_per_sample == pytest.approx(ds.X.nnz / 6)
        assert ds.avg_labels_per_sample == pytest.approx(1.0)

    def test_take_subsets_rows(self):
        ds = make_split()
        sub = ds.take([1, 3])
        assert sub.n_samples == 2
        assert np.allclose(scipy_csr(sub.X).toarray(), scipy_csr(ds.X[[1, 3]]).toarray())

    def test_label_sets(self):
        ds = make_split()
        sets = ds.label_sets()
        assert len(sets) == ds.n_samples
        for i, labels in enumerate(sets):
            assert np.array_equal(labels, ds.Y[i:i + 1].indices)

    def test_csr_normalization(self):
        # COO input with duplicates must be collapsed and sorted.
        X = sp.coo_matrix(
            (np.array([1.0, 2.0], dtype=np.float32), ([0, 0], [1, 1])),
            shape=(1, 3),
        )
        Y = sp.csr_matrix(np.array([[1.0]], dtype=np.float32))
        ds = SparseDataset(X=X, Y=Y)
        assert ds.X.nnz == 1
        assert scipy_csr(ds.X)[0, 1] == pytest.approx(3.0)


class TestXMLTask:
    def test_describe_columns(self):
        task = XMLTask(train=make_split(seed=0), test=make_split(seed=1), name="demo")
        row = task.describe()
        assert list(row) == [
            "dataset", "features", "classes", "training samples",
            "testing samples", "avg features per sample",
            "avg classes per sample",
        ]
        assert row["dataset"] == "demo"

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DataFormatError):
            XMLTask(train=make_split(d=10), test=make_split(d=11))

    def test_label_mismatch_rejected(self):
        with pytest.raises(DataFormatError):
            XMLTask(train=make_split(l=4), test=make_split(l=5))
