"""Tests for repro.core.merging — Algorithm 2 semantics, line by line."""

import numpy as np
import pytest

from repro.core.merging import compute_merge_weights, merge_models
from repro.exceptions import ConfigurationError, ModelStateError
from repro.sparse.model_state import ModelState

SPEC = [("W", (8,))]


def state_of(values):
    return ModelState.from_vector(
        SPEC, np.full(8, float(values), dtype=np.float32)
    )


class TestNormalizationWeights:
    def test_equal_updates_weight_by_batch_size(self):
        """Line 2: u_i all equal -> alpha_i = b_i / sum(b)."""
        w = compute_merge_weights(
            [100, 50, 50], [7, 7, 7], [0.01] * 3,
            pert_thr=0.1, delta=0.1, enable_perturbation=False,
        )
        assert w.branch == "batch_size"
        assert w.alphas == pytest.approx((0.5, 0.25, 0.25))

    def test_unequal_updates_weight_by_updates(self):
        """Line 3: otherwise alpha_i = u_i / sum(u)."""
        w = compute_merge_weights(
            [64, 64], [6, 4], [0.01, 0.01],
            pert_thr=0.1, delta=0.1, enable_perturbation=False,
        )
        assert w.branch == "updates"
        assert w.alphas == pytest.approx((0.6, 0.4))

    def test_weights_normalized_without_perturbation(self):
        w = compute_merge_weights(
            [10, 30, 60], [3, 3, 3], [0.01] * 3,
            pert_thr=0.1, delta=0.1, enable_perturbation=False,
        )
        assert sum(w.alphas) == pytest.approx(1.0)

    def test_uniform_weighting_option(self):
        w = compute_merge_weights(
            [10, 90], [1, 9], [0.01, 0.01],
            pert_thr=0.1, delta=0.1, weighting="uniform",
            enable_perturbation=False,
        )
        assert w.branch == "uniform"
        assert w.alphas[0] == pytest.approx(w.alphas[1])

    def test_uniform_weighting_is_orthogonal_to_perturbation(self):
        # Perturbation still applies on top of uniform weights when enabled.
        w = compute_merge_weights(
            [10, 90], [1, 9], [0.01, 0.01],
            pert_thr=0.1, delta=0.1, weighting="uniform",
        )
        assert w.perturbed
        assert w.alphas == pytest.approx((0.45, 0.55))

    def test_updates_times_batch_weighting(self):
        w = compute_merge_weights(
            [100, 50], [2, 4], [0.01, 0.01],
            pert_thr=0.1, delta=0.1, enable_perturbation=False,
            weighting="updates_times_batch",
        )
        assert w.alphas == pytest.approx((0.5, 0.5))  # 200 vs 200


class TestPerturbation:
    def test_fires_when_all_replicas_regularized(self):
        """Lines 4-6: boost argmax-u by (1+delta), damp argmin-u by (1-delta)."""
        w = compute_merge_weights(
            [64, 64, 64], [6, 5, 4], [0.05, 0.02, 0.01],
            pert_thr=0.1, delta=0.1,
        )
        assert w.perturbed
        assert w.boosted == 0 and w.damped == 2
        base = (6 / 15, 5 / 15, 4 / 15)
        assert w.alphas[0] == pytest.approx(base[0] * 1.1)
        assert w.alphas[1] == pytest.approx(base[1])
        assert w.alphas[2] == pytest.approx(base[2] * 0.9)

    def test_gate_blocks_when_any_replica_unregularized(self):
        """Line 4 requires the norm condition for ALL replicas."""
        w = compute_merge_weights(
            [64, 64], [6, 4], [0.05, 0.5],  # second replica over threshold
            pert_thr=0.1, delta=0.1,
        )
        assert not w.perturbed
        assert sum(w.alphas) == pytest.approx(1.0)

    def test_denormalization_when_updates_unequal(self):
        w = compute_merge_weights(
            [64, 64], [6, 4], [0.01, 0.01], pert_thr=0.1, delta=0.1,
        )
        assert w.perturbed
        assert sum(w.alphas) == pytest.approx(1.0 + 0.1 * (0.6 - 0.4))

    def test_tied_updates_perturb_distinct_replicas_sum_preserved(self):
        """Tie-break: boost the first, damp the last — never the same one.

        With equal updates the batch-size branch runs; boosting and damping
        equal-weight replicas by ±delta keeps the sum at exactly 1.
        """
        w = compute_merge_weights(
            [64, 64, 64], [5, 5, 5], [0.01] * 3, pert_thr=0.1, delta=0.1,
        )
        assert w.perturbed
        assert w.boosted == 0 and w.damped == 2
        assert sum(w.alphas) == pytest.approx(1.0)

    def test_single_replica_never_perturbed(self):
        w = compute_merge_weights(
            [64], [5], [0.01], pert_thr=0.1, delta=0.1,
        )
        assert not w.perturbed
        assert w.alphas == (1.0,)

    def test_disabled_perturbation(self):
        w = compute_merge_weights(
            [64, 64], [6, 4], [0.01, 0.01],
            pert_thr=0.1, delta=0.1, enable_perturbation=False,
        )
        assert not w.perturbed

    def test_renormalize_keeps_sum_one_and_relative_boost(self):
        base = compute_merge_weights(
            [64, 64], [6, 4], [0.01, 0.01],
            pert_thr=0.1, delta=0.1, enable_perturbation=False,
        )
        w = compute_merge_weights(
            [64, 64], [6, 4], [0.01, 0.01],
            pert_thr=0.1, delta=0.1, renormalize=True,
        )
        assert w.perturbed
        assert sum(w.alphas) == pytest.approx(1.0)
        # The boosted replica's relative share still grew.
        assert w.alphas[0] / w.alphas[1] > base.alphas[0] / base.alphas[1]

    def test_threshold_boundary_is_strict(self):
        # norm == pert_thr must NOT fire (strictly below per the paper).
        w = compute_merge_weights(
            [64, 64], [6, 4], [0.1, 0.05], pert_thr=0.1, delta=0.1,
        )
        assert not w.perturbed


class TestMergeModels:
    def _weights(self, alphas):
        from repro.core.merging import MergeWeights

        return MergeWeights(alphas=tuple(alphas), branch="test", perturbed=False)

    def test_momentum_update_rule(self):
        """Lines 8-9: w' = sum(alpha w_i) + gamma (w - w_p); w_p <- w."""
        replicas = [state_of(2.0), state_of(4.0)]
        global_model = state_of(1.0)
        prev_global = state_of(0.5)
        merge_models(
            replicas, self._weights([0.5, 0.5]), global_model, prev_global,
            gamma=0.9,
        )
        # merged = 3.0; momentum = 0.9 * (1.0 - 0.5) = 0.45 -> w' = 3.45.
        assert np.allclose(global_model.vector, 3.45)
        assert np.allclose(prev_global.vector, 1.0)  # w_p became old w

    def test_zero_gamma_is_plain_average(self):
        replicas = [state_of(2.0), state_of(4.0)]
        global_model = state_of(100.0)
        prev_global = state_of(-7.0)
        merge_models(
            replicas, self._weights([0.25, 0.75]), global_model, prev_global,
            gamma=0.0,
        )
        assert np.allclose(global_model.vector, 0.25 * 2 + 0.75 * 4)

    def test_precomputed_reduction_used(self):
        replicas = [state_of(2.0), state_of(4.0)]
        reduced = state_of(-1.0)  # deliberately inconsistent
        global_model = state_of(0.0)
        prev_global = state_of(0.0)
        merge_models(
            replicas, self._weights([0.5, 0.5]), global_model, prev_global,
            gamma=0.0, reduced=reduced,
        )
        assert np.allclose(global_model.vector, -1.0)

    def test_idempotent_on_identical_replicas_without_momentum(self):
        # Merging identical replicas with normalized weights returns them.
        replicas = [state_of(5.0), state_of(5.0)]
        global_model = state_of(5.0)
        prev_global = state_of(5.0)
        merge_models(
            replicas, self._weights([0.5, 0.5]), global_model, prev_global,
            gamma=0.9,
        )
        assert np.allclose(global_model.vector, 5.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            merge_models([], self._weights([]), state_of(0), state_of(0), gamma=0.5)
        with pytest.raises(ModelStateError):
            merge_models(
                [state_of(1.0)], self._weights([0.5, 0.5]), state_of(0),
                state_of(0), gamma=0.5,
            )
        with pytest.raises(ConfigurationError):
            merge_models(
                [state_of(1.0)], self._weights([1.0]), state_of(0), state_of(0),
                gamma=1.0,
            )


class TestWeightValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_merge_weights([64], [5, 5], [0.01], pert_thr=0.1, delta=0.1)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_merge_weights([], [], [], pert_thr=0.1, delta=0.1)

    def test_nonpositive_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_merge_weights([0], [5], [0.01], pert_thr=0.1, delta=0.1)

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_merge_weights(
                [64], [5], [0.01], pert_thr=0.1, delta=0.1, weighting="nope"
            )
