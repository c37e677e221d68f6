"""Tests for repro.sparse.ops and repro.sparse.optimizer."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sparse.model_state import ModelState
from repro.sparse.ops import estimate_step_flops
from repro.sparse.optimizer import sgd_step
from tests.reference import sampled_logits

SPEC = [("W", (10,))]


class TestSampledLogits:
    """The per-row oracle the LSH top-k tests score candidates with."""

    def test_matches_full_computation(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=6).astype(np.float32)
        W = rng.normal(size=(6, 12)).astype(np.float32)
        b = rng.normal(size=12).astype(np.float32)
        active = np.array([0, 3, 11])
        got = sampled_logits(h, W, b, active)
        want = (h @ W + b)[active]
        assert np.allclose(got, want, atol=1e-5)

    def test_2d_hidden(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 6)).astype(np.float32)
        W = rng.normal(size=(6, 12)).astype(np.float32)
        b = np.zeros(12, dtype=np.float32)
        active = np.array([1, 2])
        assert sampled_logits(h, W, b, active).shape == (4, 2)

    def test_non_1d_active_rejected(self):
        with pytest.raises(ConfigurationError):
            sampled_logits(
                np.zeros(3, dtype=np.float32),
                np.zeros((3, 4), dtype=np.float32),
                np.zeros(4, dtype=np.float32),
                np.zeros((2, 2), dtype=np.int64),
            )


class TestEstimateStepFlops:
    def test_components_positive_and_scaling(self):
        f1 = estimate_step_flops(32, 1000, (100, 16, 50))
        f2 = estimate_step_flops(64, 2000, (100, 16, 50))
        assert f2["sparse"] == pytest.approx(2 * f1["sparse"])
        assert f2["dense"] == pytest.approx(2 * f1["dense"])
        assert all(v > 0 for v in f1.values())

    def test_active_labels_shrinks_cost(self):
        full = estimate_step_flops(1, 50, (100, 16, 1000))
        sampled = estimate_step_flops(1, 50, (100, 16, 1000), active_labels=32)
        assert sampled["dense"] < full["dense"]
        assert sampled["update"] < full["update"]

    def test_too_few_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_step_flops(1, 1, (10,))


class TestSgdStep:
    def test_in_place_update(self):
        state = ModelState.from_vector(SPEC, np.ones(10, dtype=np.float32))
        grad = ModelState.from_vector(SPEC, np.full(10, 2.0, dtype=np.float32))
        sgd_step(state, grad, lr=0.5)
        assert np.allclose(state.vector, 0.0)

    def test_invalid_lr_rejected(self):
        state = ModelState.build(SPEC)
        with pytest.raises(ConfigurationError):
            sgd_step(state, ModelState.build(SPEC), lr=0.0)
