"""Workspace arena + out-param kernels: bit-for-bit vs the allocating oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.batching import Batch
from repro.perf.workspace import Workspace, spmm_into, spmm_t_into
from repro.sparse.mlp import MLPArchitecture, SparseMLP
from tests import reference


def make_inputs(n=48, f=300, L=40, density=0.04, seed=0):
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


class TestWorkspace:
    def test_same_tag_same_bucket_reuses_memory(self):
        ws = Workspace()
        a = ws.buffer("t", 100, 16)
        b = ws.buffer("t", 100, 16)
        assert a.base is b.base if a.base is not None else a is b
        assert a.shape == (100, 16)
        assert a.flags.c_contiguous

    def test_smaller_request_shares_bucket(self):
        ws = Workspace()
        a = ws.buffer("t", 100, 16)
        b = ws.buffer("t", 90, 16)  # same power-of-two capacity bucket
        assert b.shape == (90, 16)
        assert len(ws._buffers) == 1

    def test_distinct_tags_distinct_buffers(self):
        ws = Workspace()
        a = ws.buffer("a", 64, 8)
        b = ws.buffer("b", 64, 8)
        a[...] = 1.0
        b[...] = 2.0
        assert np.all(a == 1.0)

    def test_buckets_are_the_next_power_of_two_from_32(self):
        ws = Workspace()
        for n in (0, 1, 31, 32, 33, 64, 65, 108, 116, 128, 129, 4096, 4097):
            cap = 32
            while cap < n:
                cap <<= 1
            buf = ws.buffer("t", n, 4)
            assert buf.shape == (n, 4) and buf.dtype == np.float32
            assert (buf.base if buf.base is not None else buf).shape == (cap, 4)
        assert len(ws._buffers) == 6  # 32, 64, 128, 256, 4096, 8192

    def test_dtype_is_part_of_the_key(self):
        ws = Workspace()
        a = ws.buffer("t", 40, 8)
        b = ws.buffer("t", 40, 8, dtype=np.uint8)
        c = ws.buffer("t", 40, 8, dtype=np.int64)
        assert (a.dtype, b.dtype, c.dtype) == (np.float32, np.uint8, np.int64)
        assert len(ws._buffers) == 3
        assert ws.buffer("t", 33, 8, dtype=np.uint8).base is b.base


class TestWorkspaceRoutedMLP:
    @pytest.mark.parametrize("hidden", [(32,), (48, 24)])
    def test_forward_bit_for_bit(self, hidden):
        X, Y = make_inputs(seed=5)
        mlp = SparseMLP(MLPArchitecture(n_features=300, n_labels=40, hidden=hidden))
        state = mlp.init_state(seed=6)
        plain = reference.forward(mlp, X, state)
        for ws in (Workspace(), None):  # None leases a throw-away workspace
            routed = mlp.forward(X, state, ws)
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
        for ws in (Workspace(), None):
            loss1, grad1 = mlp.loss_and_grad(batch, state, workspace=ws)
            assert loss1 == pytest.approx(loss0, rel=1e-6)
            assert np.array_equal(grad0.vector, grad1.vector)

    def test_repeated_steps_stay_exact(self):
        """Buffer reuse across steps must not leak stale values."""
        mlp = SparseMLP(MLPArchitecture(n_features=300, n_labels=40, hidden=(32,)))
        state = mlp.init_state(seed=9)
        ws = Workspace()
        rng_seeds = [10, 11, 12, 13]
        for i, s in enumerate(rng_seeds):
            X, Y = make_inputs(n=24 + 8 * i, seed=s)  # varying batch sizes
            batch = Batch(X=X, Y=Y, indices=np.arange(X.shape[0]))
            loss0, grad0 = reference.loss_and_grad(mlp, batch, state)
            loss1, grad1 = mlp.loss_and_grad(batch, state, workspace=ws)
            assert loss1 == pytest.approx(loss0, rel=1e-6)
            assert np.array_equal(grad0.vector, grad1.vector)

    def test_evaluate_with_workspace(self):
        X, Y = make_inputs(n=70, seed=14)
        mlp = SparseMLP(MLPArchitecture(n_features=300, n_labels=40, hidden=(32,)))
        state = mlp.init_state(seed=15)
        plain = np.vstack([
            reference.forward(mlp, X[i:i + 32], state)[-1] for i in range(0, 70, 32)
        ])
        for ws in (Workspace(), None):
            routed = mlp.evaluate(X, Y, state, chunk=32, workspace=ws)
            assert np.array_equal(plain, routed)
