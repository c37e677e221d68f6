"""Property-based tests for the substrates: collectives, model states,
batching, loss, and libSVM round-trips."""

import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.comm.halving_doubling import HalvingDoublingAllReduce
from repro.comm.ring import RingAllReduce
from repro.comm.tree import TreeAllReduce
from repro.data.batching import MegaBatchAccountant
from repro.sparse.loss import softmax, softmax_cross_entropy
from repro.sparse.model_state import ModelState, weighted_average
from tests.reference import ring_reduce

# ---------------------------------------------------------------------------
# Collectives: every schedule == the reference weighted sum.
# ---------------------------------------------------------------------------

operand_sets = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.integers(min_value=1, max_value=97),
        st.lists(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            min_size=n, max_size=n,
        ),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
)


@pytest.mark.parametrize("algo_factory", [
    lambda n: RingAllReduce(1),
    lambda n: RingAllReduce(n),
    lambda n: TreeAllReduce(),
    lambda n: HalvingDoublingAllReduce(),
], ids=["ring-1", "ring-n", "tree", "halving-doubling"])
class TestAllReduceEquivalence:
    @given(operand_sets)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_weighted_sum(self, algo_factory, operands):
        size, weights, seed = operands
        n = len(weights)
        rng = np.random.default_rng(seed)
        vectors = [
            rng.normal(size=size).astype(np.float32) for _ in range(n)
        ]
        got = algo_factory(n).reduce(vectors, weights)
        want = sum(
            np.float64(w) * v.astype(np.float64)
            for w, v in zip(weights, vectors)
        )
        assert np.allclose(got, want, atol=1e-3, rtol=1e-4)


ring_operands = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.integers(min_value=0, max_value=5_000),
        # Algorithm 2's perturbation leaves weights unnormalised; a failed
        # or idle replica can weigh 0; the sign is exercised too.
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            ),
            min_size=n, max_size=n,
        ),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
)


class TestRingInPlace:
    """The in-place ring reduce is bit-identical to the chunk-moving one
    (``tests/reference.py``): same additions, in the schedule's order."""

    @given(ring_operands)
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_chunk_moving_ring(self, operands):
        size, weights, seed = operands
        n = len(weights)
        rng = np.random.default_rng(seed)
        # Magnitudes spanning several decades make addition order visible.
        vectors = [
            (rng.normal(size=size) * 10.0 ** rng.integers(-4, 5, size=size))
            .astype(np.float32)
            for _ in range(n)
        ]
        before = [v.copy() for v in vectors]
        got = RingAllReduce(n).reduce(vectors, weights)
        want = ring_reduce(before, weights)
        assert got.dtype == np.float32 and got.shape == (size,)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        for v, b in zip(vectors, before):
            assert np.array_equal(v.view(np.uint32), b.view(np.uint32))
            assert not np.shares_memory(got, v)

    def test_fewer_elements_than_devices(self):
        """size < n leaves some ring chunks empty."""
        vectors = [np.full(3, i + 1.5, np.float32) for i in range(8)]
        weights = [0.0, -1.0, 2.5, 1e-3, 0.25, 7.0, -0.5, 1.0]
        got = RingAllReduce(8).reduce(vectors, weights)
        want = ring_reduce(vectors, weights)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


# ---------------------------------------------------------------------------
# Model state algebra.
# ---------------------------------------------------------------------------

vectors_35 = hnp.arrays(
    dtype=np.float32,
    shape=(35,),
    elements=st.floats(
        min_value=-100, max_value=100, allow_nan=False, width=32
    ),
)

SPEC = [("W1", (5, 6)), ("b1", (5,))]


class TestModelStateProperties:
    @given(vectors_35, vectors_35, st.floats(min_value=-3, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_axpy_matches_numpy(self, a, b, alpha):
        sa = ModelState.from_vector(SPEC, a.copy())
        sb = ModelState.from_vector(SPEC, b.copy())
        expected = a + np.float32(alpha) * b
        sa.add_scaled(sb, alpha)
        assert np.allclose(sa.vector, expected, rtol=1e-5, atol=1e-4)

    @given(vectors_35)
    @settings(max_examples=100, deadline=None)
    def test_norm_matches_numpy(self, a):
        state = ModelState.from_vector(SPEC, a.copy())
        assert state.l2_norm() == pytest.approx(
            float(np.linalg.norm(a.astype(np.float64))), rel=1e-6, abs=1e-6
        )

    @given(st.lists(vectors_35, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_weighted_average_of_equal_weights_is_mean(self, vecs):
        states = [ModelState.from_vector(SPEC, v.copy()) for v in vecs]
        n = len(states)
        merged = weighted_average(states, [1.0 / n] * n)
        expected = np.mean(np.stack(vecs), axis=0)
        assert np.allclose(merged.vector, expected, atol=1e-3)

    @given(vectors_35)
    @settings(max_examples=50, deadline=None)
    def test_views_cover_vector_exactly(self, a):
        state = ModelState.from_vector(SPEC, a.copy())
        reconstructed = np.concatenate(
            [state[name].ravel() for name, _ in state.spec]
        )
        assert np.array_equal(reconstructed, state.vector)


# ---------------------------------------------------------------------------
# Loss function.
# ---------------------------------------------------------------------------

class TestLossProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_loss_nonnegative_and_grad_rows_zero_sum(self, n, L, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=3.0, size=(n, L)).astype(np.float32)
        labels_per_row = rng.integers(1, min(L, 4) + 1, size=n)
        rows = np.repeat(np.arange(n), labels_per_row)
        cols = np.concatenate([
            rng.choice(L, size=k, replace=False) for k in labels_per_row
        ])
        Y = sp.csr_matrix(
            (np.ones(len(rows), dtype=np.float32), (rows, cols)), shape=(n, L)
        )
        loss, grad = softmax_cross_entropy(logits, Y)
        assert loss >= 0.0
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-5)
        assert np.isfinite(grad).all()

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=-50, max_value=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_softmax_shift_invariance(self, n, L, seed, shift):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, L)).astype(np.float64)
        assert np.allclose(
            softmax(logits + shift), softmax(logits), atol=1e-8
        )


# ---------------------------------------------------------------------------
# Mega-batch accounting.
# ---------------------------------------------------------------------------

class TestAccountantProperties:
    @given(
        st.integers(min_value=1, max_value=500),
        st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=80),
    )
    @settings(max_examples=100, deadline=None)
    def test_charges_never_exceed_budget(self, budget, requests):
        acc = MegaBatchAccountant(budget)
        consumed = 0
        for req in requests:
            size = acc.clamp(req)
            if size == 0:
                assert acc.exhausted
                break
            acc.charge(size)
            consumed += size
            assert consumed <= budget
        assert acc.consumed == consumed
        assert acc.consumed <= budget
