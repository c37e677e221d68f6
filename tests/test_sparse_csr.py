"""Differential tests: the in-repo CSR type against scipy.sparse.

``repro.perf.gather`` runs scipy's compiled kernels on its own CSR arrays
without importing ``scipy.sparse``; every build, canonicalization, slice,
gather and product must be byte-equal to what scipy's public API returns
for the same input — dtypes and shapes included. scipy stays a test
dependency for exactly this.
"""

import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batching import Batch
from repro.perf import gather
from repro.perf.gather import (
    CSR, RowGatherer, as_csr, canonicalize, csr_from_coo, slice_rows,
    spmm_into, spmm_t_into,
)
from repro.sparse.mlp import MLPArchitecture, SparseMLP


def assert_same(got, want):
    """Same shape, and byte-equal ``indptr`` / ``indices`` / ``data``."""
    assert tuple(got.shape) == tuple(want.shape)
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype, part
        assert a.tobytes() == b.tobytes(), part


@st.composite
def coo(draw, max_rows=12, max_cols=20, max_nnz=40):
    """COO triplets with duplicates likely, empty rows and ``(0, f)``
    shapes possible, and values that can cancel when summed."""
    n = draw(st.integers(0, max_rows))
    f = draw(st.integers(1, max_cols))
    nnz = draw(st.integers(0, max_nnz)) if n else 0
    rows = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, min(f - 1, 4)) | st.integers(0, f - 1),
                         min_size=nnz, max_size=nnz))
    values = draw(st.lists(
        st.sampled_from([1.0, -1.0, 0.5, 3.25]) | st.floats(-4, 4, width=32),
        min_size=nnz, max_size=nnz,
    ))
    return (np.array(values, dtype=np.float32), np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64), (n, f))


def both(triplets):
    """The same matrix built by the repo and by scipy."""
    data, rows, cols, shape = triplets
    return (csr_from_coo(data, rows, cols, shape),
            sp.csr_matrix((data, (rows, cols)), shape=shape))


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(coo())
    def test_coo_build(self, triplets):
        ours, theirs = both(triplets)
        assert_same(ours, theirs)

    @settings(max_examples=100, deadline=None)
    @given(coo(), st.randoms(use_true_random=False))
    def test_canonicalization(self, triplets, rnd):
        """Unsorted rows with duplicates, as CSR arrays: ``canonicalize``
        is ``sum_duplicates``, and leaves its input as it was."""
        data, rows, cols, shape = triplets
        order = np.lexsort((rnd.sample(range(10**6), rows.size), rows))
        indptr = np.zeros(shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        raw = CSR(data[order], cols[order].astype(np.int32), indptr, shape)
        before = [a.copy() for a in (raw.data, raw.indices, raw.indptr)]
        scipy_raw = sp.csr_matrix((raw.data.copy(), raw.indices.copy(),
                                   raw.indptr.copy()), shape=shape)
        scipy_raw.sum_duplicates()
        assert_same(canonicalize(raw), scipy_raw)
        for a, b in zip((raw.data, raw.indices, raw.indptr), before):
            assert a.tobytes() == b.tobytes()
        ours, _ = both(triplets)
        assert canonicalize(ours) is ours

    @settings(max_examples=100, deadline=None)
    @given(coo(), st.data())
    def test_slices_are_views(self, triplets, data):
        ours, theirs = both(triplets)
        n = ours.shape[0]
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a, n))
        got = ours[a:b]
        assert_same(got, theirs[a:b])
        assert_same(slice_rows(ours, a, b), theirs[a:b])
        if got.nnz:
            assert np.shares_memory(got.data, ours.data)
            assert np.shares_memory(got.indices, ours.indices)

    @settings(max_examples=100, deadline=None)
    @given(coo(), st.data())
    def test_gather(self, triplets, data):
        ours, theirs = both(triplets)
        n = ours.shape[0]
        idx = np.array(data.draw(st.lists(
            st.integers(0, n - 1), max_size=15) if n else st.just([])),
            dtype=np.int64)
        assert_same(ours[idx], theirs[idx])
        assert_same(RowGatherer(ours).gather(idx), theirs[idx])

    @settings(max_examples=100, deadline=None)
    @given(coo(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_products(self, triplets, h, seed):
        ours, theirs = both(triplets)
        n, f = ours.shape
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(f, h)).astype(np.float32)
        delta = rng.normal(size=(n, h)).astype(np.float32)
        out = np.full((n, h), 7.0, dtype=np.float32)  # stale contents
        assert spmm_into(ours, W, out).tobytes() == (theirs @ W).tobytes()
        out_t = np.full((f, h), -3.0, dtype=np.float32)
        want_t = (theirs.T @ delta).astype(np.float32, copy=False)
        assert spmm_t_into(ours, delta, out_t).tobytes() == want_t.tobytes()


class TestEdgeCases:
    @pytest.mark.parametrize("shape", [(0, 7), (5, 7)],
                             ids=["no-rows", "no-entries"])
    def test_empty_matrices(self, shape):
        ours, theirs = both((np.zeros(0, np.float32), np.zeros(0, np.int64),
                             np.zeros(0, np.int64), shape))
        assert_same(ours, theirs)
        idx = np.arange(shape[0])[::-1]
        assert_same(ours[idx], theirs[idx])
        assert_same(ours[0:shape[0]], theirs[0:shape[0]])
        out = spmm_into(ours, np.ones((7, 3), np.float32),
                        np.ones((shape[0], 3), np.float32))
        assert not out.any()

    def test_duplicates_and_empty_rows(self):
        ours, theirs = both((
            np.array([1.0, 2.0, 0.5, -0.5, 4.0], np.float32),
            np.array([3, 3, 0, 0, 3]), np.array([2, 2, 1, 1, 0]), (5, 4),
        ))
        assert_same(ours, theirs)
        assert ours.nnz == 3 and np.diff(ours.indptr).tolist() == [1, 0, 0, 2, 0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            csr_from_coo(np.ones(1, np.float32), [2], [0], (2, 3))
        with pytest.raises(ValueError, match="aligned"):
            csr_from_coo(np.ones(2, np.float32), [1], [0], (2, 3))
        m = csr_from_coo(np.ones(1, np.float32), [1], [0], (2, 3))
        with pytest.raises(IndexError):
            m[np.array([2])]
        with pytest.raises(IndexError):
            m[::2]
        with pytest.raises(IndexError):
            m[np.array([True, False])]  # ids, not a mask
        with pytest.raises(ValueError, match="contiguous"):
            spmm_into(m, np.ones((3, 2), np.float32),
                      np.ones((2, 4), np.float32)[:, ::2])

    def test_zero_nnz_batch_loss_and_grad(self):
        """A batch whose rows carry no features: the input layer sees only
        its bias, the loss is finite and ``gW1`` is exactly zero."""
        n, f, L = 4, 30, 6
        X = csr_from_coo(np.zeros(0, np.float32), [], [], (n, f))
        Y = csr_from_coo(np.ones(n, np.float32), np.arange(n),
                         np.arange(n) % L, (n, L))
        mlp = SparseMLP(MLPArchitecture(n_features=f, n_labels=L, hidden=(8,)))
        loss, grad = mlp.loss_and_grad(
            Batch(X=X, Y=Y, indices=np.arange(n)), mlp.init_state(seed=3)
        )
        assert np.isfinite(loss)
        assert not grad["W1"].any()
        assert grad["b1"].any() or grad["b2"].any()


class TestIntake:
    def test_scipy_matrices_are_taken_by_duck_typing(self):
        dense = np.array([[0, 2, 0], [1, 0, 3]], dtype=np.float32)
        want = sp.csr_matrix(dense)
        for m in (want, sp.csc_matrix(dense), sp.coo_matrix(dense)):
            assert_same(as_csr(m), want)
        ours = as_csr(want)
        assert as_csr(ours) is ours and ours.data is want.data
        assert as_csr(dense) is None and as_csr(None) is None

    def test_missing_kernels_are_one_import_error(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
        for where in (str(tmp_path), None):
            with pytest.raises(ImportError, match="_sparsetools"):
                gather.load_sparsetools(where)
