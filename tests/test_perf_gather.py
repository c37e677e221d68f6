"""Equivalence tests for the direct scipy kernels of ``repro.perf.gather``.

The gather must be **bit-for-bit** identical to scipy's fancy indexing
(``X[idx]``) and ``spmm_into`` / ``spmm_t_into`` to scipy's ``X @ W`` /
``X.T @ delta`` — the hot path swapped one for the other, so any divergence
would silently change every trainer's numerics. ``SparseMLP`` built on them
must match the allocating forward/backward in ``tests/reference.py``.
``tests/test_sparse_csr.py`` holds the same equalities under hypothesis;
``TestScipyFallbacks`` checks that the deleted fallback guards stay gone.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.batching import Batch, BatchCursor, static_batches
from repro.data.dataset import SparseDataset
from repro.perf import gather
from repro.perf.gather import RowGatherer, slice_rows, spmm_into, spmm_t_into
from repro.sparse.metrics import topk_indices
from repro.sparse.mlp import MLPArchitecture, SparseMLP
from tests import reference
from tests.reference import scipy_csr


def gather_rows(m, idx):
    """The gather a window refill runs: fresh arrays per call."""
    return RowGatherer(m).gather(idx)


def make_matrix(n_rows=64, n_cols=200, density=0.05, seed=0, empty_rows=()):
    rng = np.random.default_rng(seed)
    m = sp.random(
        n_rows, n_cols, density=density, format="csr",
        dtype=np.float32, random_state=rng,
    )
    if len(empty_rows):
        lil = m.tolil()
        for r in empty_rows:
            lil[r] = 0
        m = lil.tocsr()
    m.sum_duplicates()
    m.sort_indices()
    return m


def make_inputs(n=48, f=300, L=40, density=0.04, seed=0):
    """A canonical CSR batch ``X`` and its two-labels-per-row ``Y``."""
    rng = np.random.default_rng(seed)
    X = sp.random(
        n, f, density=density, format="csr", dtype=np.float32,
        random_state=rng,
    )
    X.sum_duplicates()
    X.sort_indices()
    rows = np.repeat(np.arange(n), 2)
    cols = rng.integers(0, L, size=2 * n)
    Y = sp.csr_matrix((np.ones(2 * n, np.float32), (rows, cols)), shape=(n, L))
    Y.sum_duplicates()
    Y.data[:] = 1.0
    return X, Y


def assert_csr_identical(got: sp.csr_matrix, want: sp.csr_matrix):
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).dtype == getattr(want, part).dtype
        assert np.array_equal(getattr(got, part), getattr(want, part))


class TestGatherRows:
    def test_matches_fancy_indexing(self):
        m = make_matrix()
        idx = np.array([3, 0, 17, 63, 5], dtype=np.int64)
        assert_csr_identical(gather_rows(m, idx), m[idx])

    def test_duplicate_indices(self):
        m = make_matrix(seed=1)
        idx = np.array([7, 7, 7, 2, 7], dtype=np.int64)
        assert_csr_identical(gather_rows(m, idx), m[idx])

    def test_empty_rows_in_selection(self):
        m = make_matrix(seed=2, empty_rows=(0, 10, 11, 63))
        idx = np.array([10, 0, 5, 11, 63, 10], dtype=np.int64)
        assert_csr_identical(gather_rows(m, idx), m[idx])

    def test_all_rows_permuted(self):
        m = make_matrix(seed=3)
        idx = np.random.default_rng(4).permutation(m.shape[0])
        assert_csr_identical(gather_rows(m, idx), m[idx])

    def test_zero_rows(self):
        m = make_matrix(seed=5)
        idx = np.empty(0, dtype=np.int64)
        assert_csr_identical(gather_rows(m, idx), m[idx])

    def test_fully_empty_matrix(self):
        m = sp.csr_matrix((8, 30), dtype=np.float32)
        idx = np.array([1, 4, 4, 0], dtype=np.int64)
        assert_csr_identical(gather_rows(m, idx), m[idx])

    def test_result_is_canonical(self):
        m = make_matrix(seed=6)
        out = scipy_csr(gather_rows(m, np.array([9, 1, 9])))
        assert out.has_sorted_indices
        # Spot-check: scipy ops on the result behave normally.
        dense = out @ np.ones((m.shape[1], 3), dtype=np.float32)
        assert dense.shape == (3, 3)


class TestSliceRows:
    @pytest.mark.parametrize("bounds", [(0, 64), (0, 0), (5, 6), (9, 40), (64, 64)])
    def test_matches_slicing_without_copying(self, bounds):
        m = make_matrix(seed=15, empty_rows=(0, 9, 10, 39, 63))
        got = slice_rows(m, *bounds)
        assert_csr_identical(got, m[bounds[0]:bounds[1]])
        assert scipy_csr(got).has_canonical_format
        if got.nnz:
            assert np.shares_memory(got.data, m.data)
            assert np.shares_memory(got.indices, m.indices)
        assert not np.shares_memory(got.indptr, m.indptr)  # rebased copy

    def test_slices_of_a_gather_are_the_rows_gathered(self):
        m = make_matrix(seed=16)
        idx = np.random.default_rng(17).integers(0, 64, size=50)
        window = gather_rows(m, idx)
        for a, b in ((0, 8), (8, 9), (9, 50)):
            assert_csr_identical(slice_rows(window, a, b), m[idx[a:b]])


class TestRowGatherer:
    def test_pool_free_gathers_never_share_buffers(self):
        m = make_matrix(seed=18)
        g = RowGatherer(m)
        a, b = g.gather(np.arange(8)), g.gather(np.arange(8))
        assert not np.shares_memory(a.data, b.data)
        assert not np.shares_memory(a.indices, b.indices)
        assert not np.shares_memory(a.indptr, b.indptr)

    def test_matches_fancy_indexing_repeatedly(self):
        m = make_matrix(seed=7)
        g = RowGatherer(m)
        rng = np.random.default_rng(8)
        for _ in range(10):
            idx = rng.integers(0, m.shape[0], size=rng.integers(1, 40))
            assert_csr_identical(g.gather(idx), m[idx])

    def test_live_batches_are_not_corrupted(self):
        """Multiple concurrently-live batches (the multi-GPU trainer case)."""
        m = make_matrix(seed=10)
        g = RowGatherer(m)
        idx_a = np.array([1, 2, 3, 4])
        idx_b = np.array([30, 31, 32, 33])
        a = g.gather(idx_a)
        b = g.gather(idx_b)  # must not overwrite a's buffers
        assert_csr_identical(a, m[idx_a])
        assert_csr_identical(b, m[idx_b])


class TestBatchingIntegration:
    def make_dataset(self, n=50, seed=11):
        X = make_matrix(n_rows=n, n_cols=120, seed=seed, empty_rows=(2, 40))
        rng = np.random.default_rng(seed + 1)
        rows = np.repeat(np.arange(n), 2)
        cols = rng.integers(0, 37, size=2 * n)
        Y = sp.csr_matrix(
            (np.ones(2 * n, np.float32), (rows, cols)), shape=(n, 37)
        )
        Y.sum_duplicates()
        Y.data[:] = 1.0
        return SparseDataset(X=X, Y=Y, name="gather-test")

    def test_next_batch_matches_reference_slicing(self):
        ds = self.make_dataset()
        cursor = BatchCursor(ds, seed=3)
        for _ in range(12):  # crosses the epoch boundary: 12 * 8 > 50
            batch = cursor.next_batch(8)
            assert_csr_identical(batch.X, ds.X[batch.indices])
            assert_csr_identical(batch.Y, ds.Y[batch.indices])
            assert batch.nnz == ds.X[batch.indices].nnz

    def test_epoch_boundary_reshuffle_preserved(self):
        """Same seed => same index sequence as two fresh cursors."""
        ds = self.make_dataset()
        a = BatchCursor(ds, seed=5)
        b = BatchCursor(ds, seed=5)
        seq_a = [a.next_batch(7).indices for _ in range(20)]
        seq_b = [b.next_batch(7).indices for _ in range(20)]
        for ia, ib in zip(seq_a, seq_b):
            assert np.array_equal(ia, ib)
        # Every epoch worth of indices covers the dataset exactly once.
        flat = np.concatenate(seq_a)[:ds.n_samples]
        assert np.array_equal(np.sort(flat), np.arange(ds.n_samples))

    def test_static_batches_match_reference(self):
        ds = self.make_dataset(seed=13)
        for batch in static_batches(ds, 16, seed=2):
            assert_csr_identical(batch.X, ds.X[batch.indices])
            assert_csr_identical(batch.Y, ds.Y[batch.indices])

    def test_batch_nnz_precomputed(self):
        ds = self.make_dataset(seed=14)
        idx = np.array([0, 2, 7])  # includes an empty row
        batch = Batch(X=ds.X[idx], Y=ds.Y[idx], indices=idx)
        assert batch.nnz == ds.X[idx].nnz  # derived when not supplied
        assert Batch(X=ds.X[idx], Y=ds.Y[idx], indices=idx, nnz=0).nnz == 0
        assert batch.targets is None  # the loss derives them from Y


class TestSpmmKernels:
    def test_spmm_into_matches_scipy(self):
        X, _ = make_inputs()
        W = np.random.default_rng(1).normal(size=(300, 64)).astype(np.float32)
        out = np.full((48, 64), 7.0, dtype=np.float32)  # stale contents
        spmm_into(X, W, out)
        assert np.array_equal(out, X @ W)

    def test_spmm_t_into_matches_scipy(self):
        X, _ = make_inputs(seed=2)
        delta = np.random.default_rng(3).normal(size=(48, 64)).astype(np.float32)
        out = np.full((300, 64), -3.0, dtype=np.float32)
        spmm_t_into(X, delta, out)
        want = (X.T @ delta).astype(np.float32, copy=False)
        assert np.array_equal(out, want)

    def test_empty_matrix(self):
        X = sp.csr_matrix((5, 20), dtype=np.float32)
        W = np.ones((20, 4), dtype=np.float32)
        out = np.ones((5, 4), dtype=np.float32)
        spmm_into(X, W, out)
        assert np.array_equal(out, np.zeros((5, 4), dtype=np.float32))


class TestMLPBitForBit:
    """``SparseMLP`` on the direct kernels vs the allocating scipy twin."""

    @pytest.mark.parametrize("hidden", [(32,), (48, 24)])
    def test_forward_bit_for_bit(self, hidden):
        X, Y = make_inputs(seed=5)
        mlp = SparseMLP(MLPArchitecture(n_features=300, n_labels=40, hidden=hidden))
        state = mlp.init_state(seed=6)
        plain = reference.forward(mlp, X, state)
        routed = mlp.forward(X, state)
        assert len(plain) == len(routed.activations)
        for a, b in zip(plain, routed.activations):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("hidden", [(32,), (48, 24)])
    def test_loss_and_grad_bit_for_bit(self, hidden):
        X, Y = make_inputs(seed=7)
        mlp = SparseMLP(MLPArchitecture(n_features=300, n_labels=40, hidden=hidden))
        state = mlp.init_state(seed=8)
        batch = Batch(X=X, Y=Y, indices=np.arange(X.shape[0]))
        loss0, grad0 = reference.loss_and_grad(mlp, batch, state)
        loss1, grad1 = mlp.loss_and_grad(batch, state)
        assert loss1 == pytest.approx(loss0, rel=1e-6)
        assert np.array_equal(grad0.vector, grad1.vector)

    def test_repeated_steps_stay_exact(self):
        """One ``grad_out`` reused across batch sizes keeps no stale value."""
        mlp = SparseMLP(MLPArchitecture(n_features=300, n_labels=40, hidden=(32,)))
        state = mlp.init_state(seed=9)
        grad = mlp.zeros_state()
        for i, s in enumerate([10, 11, 12, 13]):
            X, Y = make_inputs(n=24 + 8 * i, seed=s)  # varying batch sizes
            batch = Batch(X=X, Y=Y, indices=np.arange(X.shape[0]))
            loss0, grad0 = reference.loss_and_grad(mlp, batch, state)
            loss1, grad1 = mlp.loss_and_grad(batch, state, grad_out=grad)
            assert grad1 is grad
            assert loss1 == pytest.approx(loss0, rel=1e-6)
            assert np.array_equal(grad0.vector, grad1.vector)

    def test_evaluate_bit_for_bit(self):
        X, Y = make_inputs(n=70, seed=14)
        mlp = SparseMLP(MLPArchitecture(n_features=300, n_labels=40, hidden=(32,)))
        state = mlp.init_state(seed=15)
        plain = np.vstack([
            reference.forward(mlp, X[i:i + 32], state)[-1] for i in range(0, 70, 32)
        ])
        assert np.array_equal(
            topk_indices(plain, 1)[:, 0], mlp.evaluate(X, state, chunk=32)
        )


class TestScipyFallbacks:
    """The ``_sparsetools`` / unchecked-constructor guards and the public
    scipy branches they chose are gone: the one kernel path returns the
    bits those branches returned (scipy's own ``X[idx]``, ``X[a:b]``,
    ``X @ W`` and ``X.T @ delta``)."""

    GATHER_CASES = [
        (0, (), [3, 0, 17, 63, 5]),
        (1, (), [7, 7, 7, 2, 7]),
        (2, (0, 10, 11, 63), [10, 0, 5, 11, 63, 10]),
        (5, (), []),
    ]

    @pytest.mark.parametrize("guard", ["_HAVE_ROW_INDEX", "_FAST_CTOR"])
    @pytest.mark.parametrize(
        "seed, empty_rows, idx", GATHER_CASES,
        ids=["plain", "duplicates", "empty-rows", "no-rows"],
    )
    def test_gather_and_slice(self, guard, seed, empty_rows, idx):
        assert not hasattr(gather, guard)
        m = make_matrix(seed=seed, empty_rows=empty_rows)
        idx = np.array(idx, dtype=np.int64)
        X = gather.as_csr(m)
        assert_csr_identical(gather_rows(m, idx), m[idx])
        assert_csr_identical(X[idx], m[idx])
        assert_csr_identical(slice_rows(m, 9, 40), m[9:40])
        assert_csr_identical(X[9:40], m[9:40])

    @pytest.mark.parametrize("seed", [0, 2])
    def test_spmm(self, seed):
        assert not hasattr(gather, "_HAVE_SPARSETOOLS")
        X, _ = make_inputs(seed=seed)
        rng = np.random.default_rng(seed + 1)
        W = rng.normal(size=(300, 64)).astype(np.float32)
        delta = rng.normal(size=(48, 64)).astype(np.float32)
        got = spmm_into(X, W, np.full((48, 64), 7.0, dtype=np.float32))
        assert np.array_equal(got, X @ W)
        got = spmm_t_into(X, delta, np.full((300, 64), 7.0, dtype=np.float32))
        assert np.array_equal(got, X.T @ delta)
