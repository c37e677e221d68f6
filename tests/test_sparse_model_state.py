"""Tests for repro.sparse.model_state — flat-buffer states and algebra."""

import numpy as np
import pytest

from repro.exceptions import ModelStateError
from repro.sparse.model_state import ModelState, weighted_average

SPEC = [("W1", (4, 3)), ("b1", (3,)), ("W2", (3, 5)), ("b2", (5,))]


class TestConstruction:
    def test_build_zeros(self):
        state = ModelState.build(SPEC)
        assert state.n_params == 4 * 3 + 3 + 3 * 5 + 5
        assert np.all(state.vector == 0)

    def test_views_share_memory(self):
        state = ModelState.build(SPEC)
        state["W1"][0, 0] = 5.0
        assert state.vector[0] == 5.0
        state.vector[12] = 2.0  # first element of b1
        assert state["b1"][0] == 2.0

    def test_layout_order(self):
        state = ModelState.build(SPEC)
        assert state.names() == ["W1", "b1", "W2", "b2"]
        state["b2"][...] = 7.0
        assert np.all(state.vector[-5:] == 7.0)

    def test_from_vector_no_copy_when_compatible(self):
        vec = np.arange(35, dtype=np.float32)
        state = ModelState.from_vector(SPEC, vec)
        state["W1"][0, 0] = -1.0
        assert vec[0] == -1.0

    def test_wrong_size_rejected(self):
        with pytest.raises(ModelStateError):
            ModelState(SPEC, np.zeros(10, dtype=np.float32))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ModelStateError):
            ModelState(SPEC, np.zeros(35, dtype=np.float64))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelStateError):
            ModelState.build([("W", (2,)), ("W", (2,))])

    def test_unknown_param_rejected(self):
        with pytest.raises(ModelStateError, match="unknown parameter"):
            ModelState.build(SPEC)["nope"]

    def test_nbytes(self):
        assert ModelState.build(SPEC).nbytes == 35 * 4


class TestAlgebra:
    def _rand(self, seed):
        rng = np.random.default_rng(seed)
        return ModelState.from_vector(
            SPEC, rng.normal(size=35).astype(np.float32)
        )

    def test_copy_is_deep(self):
        a = self._rand(0)
        b = a.copy()
        b.vector[0] += 1.0
        assert a.vector[0] != b.vector[0]

    def test_copy_from(self):
        a, b = self._rand(0), self._rand(1)
        a.copy_from(b)
        assert np.array_equal(a.vector, b.vector)

    def test_add_scaled(self):
        a, b = self._rand(0), self._rand(1)
        expected = a.vector + 0.5 * b.vector
        a.add_scaled(b, 0.5)
        assert np.allclose(a.vector, expected)

    def test_add_scaled_alpha_one_fast_path(self):
        a, b = self._rand(0), self._rand(1)
        expected = a.vector + b.vector
        a.add_scaled(b, 1.0)
        assert np.allclose(a.vector, expected)

    def test_scale(self):
        a = self._rand(0)
        expected = 0.25 * a.vector
        a.scale(0.25)
        assert np.allclose(a.vector, expected)

    def test_l2_norm(self):
        a = self._rand(0)
        assert a.l2_norm() == pytest.approx(np.linalg.norm(a.vector), rel=1e-6)

    def test_l2_norm_per_param(self):
        a = self._rand(0)
        assert a.l2_norm_per_param() == pytest.approx(a.l2_norm() / 35)

    def test_incompatible_spec_rejected(self):
        a = self._rand(0)
        other = ModelState.build([("X", (35,))])
        with pytest.raises(ModelStateError):
            a.add_scaled(other, 1.0)


class TestSaveLoad:
    def _rand(self, seed):
        rng = np.random.default_rng(seed)
        return ModelState.from_vector(
            SPEC, rng.normal(size=35).astype(np.float32)
        )

    def test_round_trip_bit_identical(self, tmp_path):
        state = self._rand(0)
        path = state.save(tmp_path / "state.npz")
        back = ModelState.load(path)
        assert back.spec == state.spec
        assert np.array_equal(back.vector, state.vector)

    def test_round_trip_preserves_layout_order(self, tmp_path):
        state = self._rand(1)
        back = ModelState.load(state.save(tmp_path / "state.npz"))
        assert back.names() == state.names()
        for name in state.names():
            assert np.array_equal(back[name], state[name])

    def test_loaded_state_is_contiguous_and_writable(self, tmp_path):
        back = ModelState.load(self._rand(2).save(tmp_path / "s.npz"))
        assert back.vector.flags.c_contiguous
        back["W1"][0, 0] = 9.0
        assert back.vector[0] == 9.0

    def test_save_creates_parent_dirs(self, tmp_path):
        path = self._rand(3).save(tmp_path / "deep" / "nested" / "s.npz")
        assert path.exists()

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, W1=np.zeros((4, 3), dtype=np.float32))
        with pytest.raises(ModelStateError, match="__spec__"):
            ModelState.load(path)

    def test_load_rejects_missing_param(self, tmp_path):
        state = self._rand(4)
        path = state.save(tmp_path / "s.npz")
        with np.load(path) as data:
            arrays = {n: data[n] for n in data.files if n != "b2"}
        np.savez(path, **arrays)
        with pytest.raises(ModelStateError, match="missing parameter"):
            ModelState.load(path)

    def test_load_rejects_shape_mismatch(self, tmp_path):
        state = self._rand(5)
        path = state.save(tmp_path / "s.npz")
        with np.load(path) as data:
            arrays = {n: data[n] for n in data.files}
        arrays["W1"] = arrays["W1"].reshape(3, 4)
        np.savez(path, **arrays)
        with pytest.raises(ModelStateError, match="shape"):
            ModelState.load(path)

    def test_reserved_name_rejected(self, tmp_path):
        state = ModelState.build([("__spec__", (3,))])
        with pytest.raises(ModelStateError, match="reserved"):
            state.save(tmp_path / "s.npz")


class TestWeightedAverage:
    def test_matches_manual(self):
        rng = np.random.default_rng(2)
        states = [
            ModelState.from_vector(SPEC, rng.normal(size=35).astype(np.float32))
            for _ in range(3)
        ]
        weights = [0.2, 0.5, 0.3]
        merged = weighted_average(states, weights)
        expected = sum(
            w * s.vector.astype(np.float64) for w, s in zip(weights, states)
        )
        assert np.allclose(merged.vector, expected, atol=1e-5)

    def test_unnormalized_weights_allowed(self):
        state = ModelState.from_vector(
            SPEC, np.ones(35, dtype=np.float32)
        )
        merged = weighted_average([state, state], [1.0, 1.0])
        assert np.allclose(merged.vector, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ModelStateError):
            weighted_average([], [])

    def test_length_mismatch_rejected(self):
        s = ModelState.build(SPEC)
        with pytest.raises(ModelStateError):
            weighted_average([s], [0.5, 0.5])

    def test_result_independent_storage(self):
        s = ModelState.from_vector(SPEC, np.ones(35, dtype=np.float32))
        merged = weighted_average([s], [1.0])
        merged.vector[0] = 99.0
        assert s.vector[0] == 1.0
