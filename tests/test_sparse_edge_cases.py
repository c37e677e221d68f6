"""Edge-case tests for the sparse substrate: degenerate shapes and inputs."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.batching import Batch
from repro.sparse.loss import softmax_cross_entropy
from repro.sparse.metrics import precision_at_k
from repro.sparse.mlp import MLPArchitecture, SparseMLP


def batch_of(X, Y):
    return Batch(X=X, Y=Y, indices=np.arange(X.shape[0]))


class TestDegenerateBatches:
    def setup_method(self):
        self.arch = MLPArchitecture(20, 6, hidden=(8,))
        self.mlp = SparseMLP(self.arch)
        self.state = self.mlp.init_state(seed=0)

    def test_single_sample_batch(self):
        X = sp.random(1, 20, density=0.3, format="csr", dtype=np.float32,
                      random_state=np.random.default_rng(0))
        Y = sp.csr_matrix(
            (np.ones(1, dtype=np.float32), ([0], [2])), shape=(1, 6)
        )
        loss, grad = self.mlp.loss_and_grad(batch_of(X, Y), self.state)
        assert np.isfinite(loss)
        assert np.isfinite(grad.vector).all()

    def test_all_zero_feature_rows(self):
        """Samples with no features still produce a valid (bias-driven)
        forward pass and gradient."""
        X = sp.csr_matrix((3, 20), dtype=np.float32)
        Y = sp.csr_matrix(
            (np.ones(3, dtype=np.float32), ([0, 1, 2], [0, 1, 2])),
            shape=(3, 6),
        )
        loss, grad = self.mlp.loss_and_grad(batch_of(X, Y), self.state)
        assert np.isfinite(loss)
        # Input weights receive no gradient from empty rows.
        assert np.allclose(grad["W1"], 0.0)

    def test_sample_with_every_label(self):
        X = sp.random(1, 20, density=0.5, format="csr", dtype=np.float32,
                      random_state=np.random.default_rng(1))
        Y = sp.csr_matrix(np.ones((1, 6), dtype=np.float32))
        loss, grad = self.mlp.loss_and_grad(batch_of(X, Y), self.state)
        # Uniform target over all 6 labels: loss >= log(6) is NOT required,
        # but finiteness and a zero-sum output-layer bias gradient are.
        assert np.isfinite(loss)
        assert grad["b2"].sum() == pytest.approx(0.0, abs=1e-6)

    def test_dense_input_matches_sparse(self):
        """CSR with explicit zeros vs dense-equivalent CSR: same results."""
        rng = np.random.default_rng(2)
        dense = rng.normal(size=(4, 20)).astype(np.float32)
        dense[dense < 0.5] = 0.0
        X1 = sp.csr_matrix(dense)
        Y = sp.csr_matrix(
            (np.ones(4, dtype=np.float32), (range(4), [0, 1, 2, 3])),
            shape=(4, 6),
        )
        l1, g1 = self.mlp.loss_and_grad(batch_of(X1, Y), self.state)
        X2 = sp.csr_matrix(dense.copy())
        l2, g2 = self.mlp.loss_and_grad(batch_of(X2, Y), self.state)
        assert l1 == pytest.approx(l2)
        assert np.array_equal(g1.vector, g2.vector)


class TestExtremeLogits:
    def test_loss_finite_under_huge_logits(self):
        Y = sp.csr_matrix(
            (np.ones(2, dtype=np.float32), ([0, 1], [0, 1])), shape=(2, 3)
        )
        logits = np.array(
            [[1e30, -1e30, 0.0], [-1e30, 1e30, 0.0]], dtype=np.float32
        )
        loss, grad = softmax_cross_entropy(logits, Y)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()

    def test_metrics_with_negative_scores(self):
        Y = sp.csr_matrix(
            (np.ones(2, dtype=np.float32), ([0, 1], [0, 2])), shape=(2, 3)
        )
        scores = np.array(
            [[-1.0, -5.0, -9.0], [-9.0, -5.0, -1.0]], dtype=np.float32
        )
        assert precision_at_k(scores, Y, ks=(1,))[1] == 1.0

    def test_metrics_single_label_universe(self):
        Y = sp.csr_matrix(np.ones((3, 1), dtype=np.float32))
        scores = np.zeros((3, 1), dtype=np.float32)
        out = precision_at_k(scores, Y, ks=(1, 3))
        assert out[1] == 1.0
        assert out[3] == 1.0  # k clamped to the 1-label space


class TestDeepArchitectures:
    def test_three_hidden_layers_gradcheck(self, micro_task):
        from repro.data.batching import BatchCursor

        arch = MLPArchitecture(
            micro_task.n_features, micro_task.n_labels, hidden=(16, 12, 8)
        )
        mlp = SparseMLP(arch)
        state = mlp.init_state(seed=3)
        batch = BatchCursor(micro_task.train, seed=1).next_batch(6)
        _, grad = mlp.loss_and_grad(batch, state)
        rng = np.random.default_rng(2)
        eps = 1e-3
        checked = 0
        for _ in range(20):
            i = int(rng.integers(state.n_params))
            if abs(grad.vector[i]) < 1e-7:
                continue  # dead ReLU paths have exact-zero gradients
            old = state.vector[i]
            state.vector[i] = old + eps
            lp, _ = mlp.loss_and_grad(batch, state)
            state.vector[i] = old - eps
            lm, _ = mlp.loss_and_grad(batch, state)
            state.vector[i] = old
            fd = (lp - lm) / (2 * eps)
            assert grad.vector[i] == pytest.approx(fd, abs=5e-3)
            checked += 1
        assert checked >= 5

    def test_parameter_count_grows_with_depth(self):
        shallow = MLPArchitecture(100, 50, hidden=(16,))
        deep = MLPArchitecture(100, 50, hidden=(16, 16, 16))
        assert deep.n_params > shallow.n_params
