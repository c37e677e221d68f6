"""Tests for repro.sparse.mlp — architecture, forward/backward, training."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.batching import Batch, BatchCursor
from repro.exceptions import ConfigurationError
from repro.sparse.metrics import topk_indices
from repro.sparse.mlp import MLPArchitecture, SparseMLP
from repro.sparse.optimizer import sgd_step
from tests.reference import scipy_csr


class TestArchitecture:
    def test_layer_dims(self):
        arch = MLPArchitecture(100, 50, hidden=(16, 8))
        assert arch.layer_dims == [100, 16, 8, 50]

    def test_parameter_spec(self):
        arch = MLPArchitecture(10, 5, hidden=(4,))
        spec = arch.parameter_spec()
        assert spec == [
            ("W1", (10, 4)), ("b1", (4,)), ("W2", (4, 5)), ("b2", (5,)),
        ]

    def test_n_params(self):
        arch = MLPArchitecture(10, 5, hidden=(4,))
        assert arch.n_params == 10 * 4 + 4 + 4 * 5 + 5

    @pytest.mark.parametrize("bad", [(0, 5, (4,)), (10, 0, (4,)), (10, 5, ()), (10, 5, (0,))])
    def test_invalid_dims_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            MLPArchitecture(bad[0], bad[1], hidden=bad[2])


@pytest.fixture()
def mlp_and_batch(micro_task):
    arch = MLPArchitecture(
        micro_task.n_features, micro_task.n_labels, hidden=(32,)
    )
    mlp = SparseMLP(arch)
    batch = BatchCursor(micro_task.train, seed=4).next_batch(16)
    return mlp, batch


class TestForward:
    def test_shapes(self, mlp_and_batch):
        mlp, batch = mlp_and_batch
        state = mlp.init_state(seed=0)
        cache = mlp.forward(batch.X, state)
        assert cache.logits.shape == (16, mlp.arch.n_labels)
        assert cache.activations[0].shape == (16, 32)

    def test_hidden_nonnegative(self, mlp_and_batch):
        mlp, batch = mlp_and_batch
        cache = mlp.forward(batch.X, mlp.init_state(seed=0))
        assert (cache.activations[0] >= 0).all()  # post-ReLU

    def test_wrong_feature_dim_rejected(self, mlp_and_batch, micro_task):
        mlp, batch = mlp_and_batch
        with pytest.raises(ConfigurationError):
            mlp.forward(scipy_csr(batch.X)[:, :10], mlp.init_state(seed=0))

    def test_predict_equals_forward_logits(self, mlp_and_batch):
        mlp, batch = mlp_and_batch
        state = mlp.init_state(seed=0)
        assert np.array_equal(
            mlp.predict(batch.X, state), mlp.forward(batch.X, state).logits
        )

    def test_evaluate_chunks_match_single_shot(self, mlp_and_batch, micro_task):
        mlp, _ = mlp_and_batch
        state = mlp.init_state(seed=0)
        X = micro_task.test.X
        whole = topk_indices(mlp.predict(X, state), 1)[:, 0]
        assert np.array_equal(mlp.evaluate(X, state, chunk=10_000), whole)
        assert np.array_equal(mlp.evaluate(X, state, chunk=17), whole)


class TestPredictBatched:
    def test_bit_identical_to_predict(self, mlp_and_batch, micro_task):
        """Chunking must not change a single bit: each chunk runs the same
        kernels on the same rows as the single-shot path."""
        mlp, _ = mlp_and_batch
        state = mlp.init_state(seed=0)
        X = micro_task.test.X[:40]
        whole = mlp.predict(X, state)
        for chunk in (1, 7, 39, 40, 41, 4096):
            assert np.array_equal(
                mlp.predict_batched(X, state, chunk=chunk), whole
            )

    def test_chunk_boundary_exact_multiple(self, mlp_and_batch, micro_task):
        mlp, _ = mlp_and_batch
        state = mlp.init_state(seed=0)
        X = micro_task.test.X[:30]
        assert np.array_equal(
            mlp.predict_batched(X, state, chunk=10), mlp.predict(X, state)
        )

    def test_one_chunk_returns_predicts_array(self, mlp_and_batch,
                                              micro_task):
        """No second ``(n, L)`` array when one chunk covers ``X``."""
        mlp, _ = mlp_and_batch
        state = mlp.init_state(seed=0)
        X = micro_task.test.X[:40]
        logits = mlp.predict(X, state)
        mlp.predict = lambda rows, s: logits
        for chunk in (40, 4096):
            assert mlp.predict_batched(X, state, chunk=chunk) is logits

    def test_empty_batch(self, mlp_and_batch, micro_task):
        mlp, _ = mlp_and_batch
        state = mlp.init_state(seed=0)
        out = mlp.predict_batched(micro_task.test.X[:0], state)
        assert out.shape == (0, mlp.arch.n_labels)

    def test_bad_chunk_rejected(self, mlp_and_batch, micro_task):
        mlp, _ = mlp_and_batch
        state = mlp.init_state(seed=0)
        with pytest.raises(ConfigurationError):
            mlp.predict_batched(micro_task.test.X[:4], state, chunk=0)


class TestBackward:
    def test_gradient_check(self, mlp_and_batch):
        """Analytic gradient vs central finite differences at random coords."""
        mlp, batch = mlp_and_batch
        state = mlp.init_state(seed=1)
        _, grad = mlp.loss_and_grad(batch, state)
        rng = np.random.default_rng(0)
        eps = 1e-3
        for _ in range(12):
            i = int(rng.integers(state.n_params))
            old = state.vector[i]
            state.vector[i] = old + eps
            lp, _ = mlp.loss_and_grad(batch, state)
            state.vector[i] = old - eps
            lm, _ = mlp.loss_and_grad(batch, state)
            state.vector[i] = old
            fd = (lp - lm) / (2 * eps)
            assert grad.vector[i] == pytest.approx(fd, abs=5e-3)

    def test_gradient_check_two_hidden_layers(self, micro_task):
        arch = MLPArchitecture(
            micro_task.n_features, micro_task.n_labels, hidden=(16, 12)
        )
        mlp = SparseMLP(arch)
        batch = BatchCursor(micro_task.train, seed=4).next_batch(8)
        state = mlp.init_state(seed=1)
        _, grad = mlp.loss_and_grad(batch, state)
        rng = np.random.default_rng(1)
        eps = 1e-3
        for _ in range(12):
            i = int(rng.integers(state.n_params))
            old = state.vector[i]
            state.vector[i] = old + eps
            lp, _ = mlp.loss_and_grad(batch, state)
            state.vector[i] = old - eps
            lm, _ = mlp.loss_and_grad(batch, state)
            state.vector[i] = old
            fd = (lp - lm) / (2 * eps)
            assert grad.vector[i] == pytest.approx(fd, abs=5e-3)

    @pytest.mark.parametrize("hidden", [(5,), (6, 4)])
    def test_full_finite_difference(self, hidden):
        """Every coordinate of a tiny model against central differences."""
        rng = np.random.default_rng(7)
        n, n_features, n_labels = 6, 12, 5
        X = sp.random(n, n_features, density=0.4, format="csr",
                      dtype=np.float32, random_state=rng)
        Y = sp.csr_matrix(
            (np.ones(9, np.float32),
             ([0, 1, 1, 2, 3, 3, 3, 4, 5], [0, 1, 4, 2, 0, 2, 3, 4, 1])),
            shape=(n, n_labels),
        )
        batch = Batch(X=X, Y=Y, indices=np.arange(n))
        mlp = SparseMLP(MLPArchitecture(n_features, n_labels, hidden=hidden))
        state = mlp.init_state(seed=2)
        state.vector *= np.float32(np.sqrt(2.0))  # He-scaled weights
        _, grad = mlp.loss_and_grad(batch, state)
        eps = 3e-3  # small enough that no ReLU flips under the probe
        fd = np.empty(state.n_params)
        for i in range(state.n_params):
            old = state.vector[i]
            state.vector[i] = old + eps
            lp, _ = mlp.loss_and_grad(batch, state)
            state.vector[i] = old - eps
            lm, _ = mlp.loss_and_grad(batch, state)
            state.vector[i] = old
            fd[i] = (lp - lm) / (2 * eps)
        assert np.linalg.norm(grad.vector) > 0.1
        assert np.linalg.norm(fd - grad.vector) < 1e-3 * np.linalg.norm(grad.vector)

    def test_grad_out_buffer_reused(self, mlp_and_batch):
        mlp, batch = mlp_and_batch
        state = mlp.init_state(seed=1)
        buffer = mlp.zeros_state()
        _, grad = mlp.loss_and_grad(batch, state, grad_out=buffer)
        assert grad is buffer

    def test_gradient_deterministic(self, mlp_and_batch):
        mlp, batch = mlp_and_batch
        state = mlp.init_state(seed=1)
        _, g1 = mlp.loss_and_grad(batch, state)
        _, g2 = mlp.loss_and_grad(batch, state)
        assert np.array_equal(g1.vector, g2.vector)


class TestTraining:
    def test_sgd_reduces_loss_and_learns(self, micro_task):
        arch = MLPArchitecture(
            micro_task.n_features, micro_task.n_labels, hidden=(32,)
        )
        mlp = SparseMLP(arch)
        state = mlp.init_state(seed=2)
        cursor = BatchCursor(micro_task.train, seed=3)
        first_loss = None
        grad = mlp.zeros_state()
        for _ in range(150):
            batch = cursor.next_batch(64)
            loss, grad = mlp.loss_and_grad(batch, state, grad_out=grad)
            if first_loss is None:
                first_loss = loss
            sgd_step(state, grad, lr=0.5)
        assert loss < first_loss * 0.8
        top1 = mlp.evaluate(micro_task.test.X, state)
        hits = scipy_csr(micro_task.test.Y).toarray()[np.arange(top1.size), top1] > 0
        assert hits.mean() > 0.3


class TestInit:
    def test_same_seed_identical(self):
        arch = MLPArchitecture(20, 10, hidden=(8,))
        a = SparseMLP(arch).init_state(seed=5)
        b = SparseMLP(arch).init_state(seed=5)
        assert np.array_equal(a.vector, b.vector)

    def test_biases_zero(self):
        state = SparseMLP(MLPArchitecture(20, 10, hidden=(8,))).init_state(seed=0)
        assert np.all(state["b1"] == 0) and np.all(state["b2"] == 0)

    def test_fan_in_scaling(self):
        arch = MLPArchitecture(1000, 10, hidden=(500,))
        state = SparseMLP(arch).init_state(seed=0)
        assert state["W1"].std() == pytest.approx(1 / np.sqrt(1000), rel=0.1)
        assert state["W2"].std() == pytest.approx(1 / np.sqrt(500), rel=0.1)

