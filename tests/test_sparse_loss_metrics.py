"""Tests for repro.sparse.loss and repro.sparse.metrics."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import DataFormatError
from repro.sparse.loss import label_targets, softmax_cross_entropy
from repro.sparse.metrics import precision_at_k, topk_indices
from tests import reference
from tests.reference import softmax


def indicator(rows_labels, n_labels):
    rows, cols = [], []
    for i, labels in enumerate(rows_labels):
        for lab in labels:
            rows.append(i)
            cols.append(lab)
    return sp.csr_matrix(
        (np.ones(len(rows), dtype=np.float32), (rows, cols)),
        shape=(len(rows_labels), n_labels),
    )


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 7)).astype(np.float32)
        p = softmax(logits.copy())
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(logits + 100.0), softmax(logits))

    def test_overflow_stability(self):
        logits = np.array([[1e4, 0.0]])
        p = softmax(logits)
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 6))
        assert np.allclose(
            reference.log_softmax(logits), np.log(softmax(logits)), atol=1e-6
        )


class TestUniformTargets:
    """The oracle's targets (the shipped loss reads them off ``Y.indptr``)."""

    def test_row_normalization(self):
        Y = indicator([[0], [1, 3], [0, 2, 4]], 5)
        T = reference.uniform_label_targets(Y)
        assert np.allclose(np.asarray(T.sum(axis=1)).ravel(), 1.0)
        assert T[2, 0] == pytest.approx(1.0 / 3)

    def test_empty_row_rejected(self):
        Y = sp.csr_matrix((1, 3), dtype=np.float32)
        with pytest.raises(DataFormatError):
            reference.uniform_label_targets(Y)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        Y = indicator([[0], [1]], 3)
        logits = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]], dtype=np.float32)
        loss, grad = softmax_cross_entropy(logits, Y)
        assert loss < 1e-6
        assert np.abs(grad).max() < 1e-6

    def test_uniform_logits_loss_is_log_L(self):
        Y = indicator([[0]], 4)
        logits = np.zeros((1, 4), dtype=np.float32)
        loss, _ = softmax_cross_entropy(logits, Y)
        assert loss == pytest.approx(np.log(4), rel=1e-5)

    def test_gradient_rows_sum_to_zero(self):
        # softmax minus a distribution: each row must sum to 0.
        rng = np.random.default_rng(0)
        Y = indicator([[0, 2], [1], [3, 1]], 5)
        logits = rng.normal(size=(3, 5)).astype(np.float32)
        _, grad = softmax_cross_entropy(logits, Y)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-6)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(3)
        Y = indicator([[0, 2], [1]], 4)
        logits = rng.normal(size=(2, 4)).astype(np.float64)
        _, grad = softmax_cross_entropy(logits.astype(np.float32), Y)
        eps = 1e-4
        for i in range(2):
            for j in range(4):
                up = logits.copy()
                up[i, j] += eps
                down = logits.copy()
                down[i, j] -= eps
                lu, _ = softmax_cross_entropy(up.astype(np.float32), Y)
                ld, _ = softmax_cross_entropy(down.astype(np.float32), Y)
                fd = (lu - ld) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, abs=2e-3)

    def test_shape_mismatch_rejected(self):
        Y = indicator([[0]], 3)
        with pytest.raises(DataFormatError):
            softmax_cross_entropy(np.zeros((1, 4), dtype=np.float32), Y)

    def test_sample_without_labels_rejected(self):
        Y = indicator([[0], []], 3)
        with pytest.raises(DataFormatError, match="without labels"):
            softmax_cross_entropy(np.zeros((2, 3), dtype=np.float32), Y)

    @pytest.mark.parametrize("buf", [
        np.empty((2, 4), np.float32),   # wrong shape
        np.empty((3, 3), np.float32),
        np.empty((2, 3), np.float64),   # wrong dtype: was silently reallocated
    ])
    def test_bad_grad_out_rejected(self, buf):
        Y = indicator([[0], [1, 2]], 3)
        with pytest.raises(DataFormatError, match="grad_out"):
            softmax_cross_entropy(np.zeros((2, 3), np.float32), Y, grad_out=buf)

    def test_grad_out_is_what_comes_back(self):
        Y = indicator([[0], [1, 2]], 3)
        buf = np.full((2, 3), 9.0, dtype=np.float32)  # stale contents
        _, grad = softmax_cross_entropy(np.zeros((2, 3), np.float32), Y, grad_out=buf)
        assert grad is buf

    def test_grad_out_may_alias_logits(self):
        """``SparseMLP`` lets dlogits overwrite the dead logits buffer."""
        rng = np.random.default_rng(4)
        Y = indicator([[0, 2], [1], [3, 1]], 5)
        logits = rng.normal(size=(3, 5)).astype(np.float32)
        loss, grad = softmax_cross_entropy(logits.copy(), Y)
        loss_alias, grad_alias = softmax_cross_entropy(logits, Y, grad_out=logits)
        assert grad_alias is logits
        assert loss_alias == loss
        assert np.array_equal(grad_alias, grad)

    @pytest.mark.parametrize("big", [1e4, -1e4])
    def test_extreme_logits_stay_finite(self, big):
        Y = indicator([[0, 3], [2], [1, 2, 3]], 4)
        logits = np.zeros((3, 4), dtype=np.float32)
        logits[:, 1] = big
        logits[1, 2] = -big
        loss, grad = softmax_cross_entropy(logits, Y)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-6)

    def test_no_second_logits_sized_array(self):
        """One pass in the caller's buffer: no float64 copy, no second
        float32 ``(n, L)`` array (either would show as ≥ 1× / 2× n·L·4)."""
        n, L = 256, 8000
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(n, L)).astype(np.float32)
        Y = indicator([[int(c)] for c in rng.integers(0, L, size=n)], L)
        buf = np.empty((n, L), dtype=np.float32)
        softmax_cross_entropy(logits, Y, grad_out=buf)  # warm numpy's caches
        tracemalloc.start()
        softmax_cross_entropy(logits, Y, grad_out=buf)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 0.5 * n * L * 4


@st.composite
def loss_cases(draw):
    """``(logits, Y)`` over the shape / label-pattern corners."""
    n = draw(st.integers(1, 9))
    L = draw(st.integers(1, 12))
    pattern = draw(st.sampled_from(["one", "all", "mixed"]))
    rows_labels = []
    for _ in range(n):
        if pattern == "one":
            labels = [draw(st.integers(0, L - 1))]
        elif pattern == "all":
            labels = list(range(L))
        else:
            labels = draw(st.lists(
                st.integers(0, L - 1), min_size=1, max_size=L, unique=True
            ))
        rows_labels.append(sorted(labels))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**16))
    scale = draw(st.sampled_from([0.01, 1.0, 30.0]))
    logits = np.random.default_rng(seed).normal(scale=scale, size=(n, L))
    return logits.astype(dtype), indicator(rows_labels, L)


class TestAgainstFloat64Oracle:
    """Differential: the one-pass loss vs the two-pass float64 reference."""

    @given(case=loss_cases(), with_buffer=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_gradient_identical_loss_within_tolerance(self, case, with_buffer):
        logits, Y = case

        def buf():
            return np.empty(logits.shape, np.float32) if with_buffer else None

        ref_loss, ref_grad = reference.softmax_cross_entropy(
            logits.copy(), Y, grad_out=buf()
        )
        before = logits.copy()
        loss, grad = softmax_cross_entropy(logits, Y, grad_out=buf())
        assert np.array_equal(logits, before)  # input untouched
        assert grad.dtype == np.float32
        assert np.array_equal(grad, ref_grad)
        assert abs(loss - ref_loss) <= 1e-6 * max(1.0, abs(ref_loss))


def same_bits(a, b):
    """Equal including NaN positions and the sign of zeros."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestAgainstPreTargetsFloat32Loss:
    """The flat-indexed, argmax-read loss vs the float32 loss it replaced
    (``reference.softmax_cross_entropy_f32``): same bits, both outputs."""

    def check(self, logits, Y):
        n, L = logits.shape
        wide = np.empty((n, 2 * L), dtype=np.float32)
        for grad_out in (None, np.empty((n, L), np.float32), wide[:, ::2]):
            # Float64 logits are only computed in float64 without a buffer.
            want_loss, want_grad = reference.softmax_cross_entropy_f32(
                logits.copy(), Y,
                grad_out=None if grad_out is None else np.empty((n, L), np.float32))
            for targets in (None, label_targets(Y)):
                with np.errstate(invalid="ignore"):
                    loss, grad = softmax_cross_entropy(
                        logits.copy(), Y, grad_out=grad_out, targets=targets)
                assert grad_out is None or grad is grad_out
                assert same_bits(grad, want_grad)
                assert same_bits(np.float64(loss), np.float64(want_loss))

    @given(case=loss_cases())
    @settings(max_examples=100, deadline=None)
    def test_drawn_cases(self, case):
        self.check(*case)

    @pytest.mark.parametrize("poison", [
        "big", "small", "all_neg_inf_row", "pos_inf", "nan_row", "signed_zeros",
    ])
    def test_extreme_rows(self, poison):
        Y = indicator([[0, 3], [2], [1, 2, 3], [0]], 4)
        logits = np.random.default_rng(6).normal(size=(4, 4)).astype(np.float32)
        if poison == "big":
            logits[:, 1] = 1e4
        elif poison == "small":
            logits[:, 1], logits[1, 2] = -1e4, 1e4
        elif poison == "all_neg_inf_row":
            logits[2] = -np.inf
        elif poison == "pos_inf":
            logits[0, 3] = logits[1, 0] = np.inf
        elif poison == "nan_row":
            logits[1, 2] = np.nan
        else:  # a zero maximum tied across both signs, either order
            logits[...] = -1.0
            logits[0, :2] = (-0.0, 0.0)
            logits[1, 1:3] = (0.0, -0.0)
            logits[2] = -0.0
        with np.errstate(invalid="ignore", over="ignore"):
            self.check(logits, Y)

    def test_paper_shapes(self):
        rng = np.random.default_rng(8)
        for n, L in ((108, 64), (116, 1536)):
            Y = indicator(
                [sorted(rng.choice(L, size=rng.integers(1, 6), replace=False))
                 for _ in range(n)], L)
            self.check(rng.normal(scale=4.0, size=(n, L)).astype(np.float32), Y)


class TestLabelTargets:
    def test_entries_and_weights(self):
        Y = indicator([[0, 2], [1], [0, 3, 4]], 5)
        entries, t = label_targets(Y)
        assert entries.dtype == np.intp and t.dtype == np.float32
        assert entries.tolist() == [0, 2, 6, 10, 13, 14]
        assert t.tolist() == [0.5, 0.5, 1.0] + [np.float32(1 / 3)] * 3

    def test_unlabelled_row_rejected(self):
        with pytest.raises(DataFormatError, match="without labels"):
            label_targets(indicator([[0], []], 3))


class TestPrecisionAtK:
    def test_exact_small_case(self):
        Y = indicator([[0], [1], [2, 0]], 3)
        scores = np.array(
            [[0.9, 0.1, 0.0],   # top1 = 0 -> hit
             [0.9, 0.1, 0.0],   # top1 = 0 -> miss
             [0.5, 0.1, 0.9]],  # top1 = 2 -> hit
            dtype=np.float32,
        )
        assert precision_at_k(scores, Y, ks=(1,))[1] == pytest.approx(2.0 / 3)

    def test_p_at_3(self):
        Y = indicator([[0, 1, 2]], 5)
        scores = np.array([[5.0, 4.0, 3.0, 2.0, 1.0]], dtype=np.float32)
        out = precision_at_k(scores, Y, ks=(1, 3, 5))
        assert out[1] == 1.0
        assert out[3] == 1.0
        assert out[5] == pytest.approx(3.0 / 5)

    def test_k_larger_than_labels_clamped(self):
        Y = indicator([[0]], 2)
        scores = np.array([[1.0, 0.0]], dtype=np.float32)
        out = precision_at_k(scores, Y, ks=(10,))
        assert out[10] == pytest.approx(0.5)

    def test_ties_handled_deterministically(self):
        Y = indicator([[1]], 3)
        scores = np.zeros((1, 3), dtype=np.float32)
        out = precision_at_k(scores, Y, ks=(1,))
        assert out[1] in (0.0, 1.0)  # deterministic either way
        assert out == precision_at_k(scores, Y, ks=(1,))

    def test_invalid_k_rejected(self):
        Y = indicator([[0]], 2)
        with pytest.raises(DataFormatError):
            precision_at_k(np.zeros((1, 2), dtype=np.float32), Y, ks=(0,))

    def test_shape_mismatch_rejected(self):
        Y = indicator([[0]], 2)
        with pytest.raises(DataFormatError):
            precision_at_k(np.zeros((2, 2), dtype=np.float32), Y)

    def test_empty_split_scores_zero(self):
        scores = np.zeros((0, 4), dtype=np.float32)
        Y = sp.csr_matrix((0, 4), dtype=np.float32)
        assert precision_at_k(scores, Y, ks=(1, 3)) == {1: 0.0, 3: 0.0}


class TestTopkIndices:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(20, 30)).astype(np.float32)
        for k in (1, 3, 29, 30):
            expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            assert np.array_equal(topk_indices(scores, k), expected)

    def test_ties_break_toward_lowest_id(self):
        """The argpartition fast path must agree with the stable full sort
        on rows where the k-th score is tied across many labels."""
        scores = np.array(
            [[1.0, 0.5, 0.5, 0.5, 0.2],
             [0.0, 0.0, 0.0, 0.0, 0.0],
             [0.5, 1.0, 0.5, 1.0, 0.5]],
            dtype=np.float32,
        )
        for k in (1, 2, 3, 4):
            expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            assert np.array_equal(topk_indices(scores, k), expected)

    def test_all_tied_row_is_identity_prefix(self):
        scores = np.zeros((1, 8), dtype=np.float32)
        assert np.array_equal(topk_indices(scores, 3), [[0, 1, 2]])

    def test_quantized_scores_fast_path(self):
        """Coarsely quantized scores force heavy k-th-value ties — the case
        where bare argpartition would pick arbitrary members."""
        rng = np.random.default_rng(1)
        scores = np.round(rng.normal(size=(40, 50)) * 2).astype(np.float32)
        for k in (5, 13):
            expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            assert np.array_equal(topk_indices(scores, k), expected)

    @pytest.mark.parametrize("kind", ["continuous", "quantized", "all_tied"])
    def test_top1_is_first_column_of_stable_argsort(self, kind):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(64, 37)).astype(np.float32)
        if kind == "quantized":
            scores = np.round(scores)
        elif kind == "all_tied":
            scores[:] = 0.25
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :1]
        assert np.array_equal(topk_indices(scores, 1), expected)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])  # argmax / partition / full
    def test_nan_ranks_last_as_neg_inf(self, k):
        nan, inf = np.nan, np.inf
        scores = np.array(
            [[1.0, nan, 3.0, -inf, 2.0],
             [nan, nan, nan, nan, nan],   # all-NaN row: lowest ids
             [nan, 0.0, 0.0, nan, 0.0],
             [4.0, 3.0, 2.0, 1.0, 0.0]],  # clean row in a dirty batch
            dtype=np.float32,
        )
        as_neg_inf = np.where(np.isnan(scores), -inf, scores)
        expected = np.argsort(-as_neg_inf, axis=1, kind="stable")[:, :k]
        assert np.array_equal(topk_indices(scores, k), expected)
        assert np.array_equal(topk_indices(scores, k)[1], np.arange(k))

    def test_diverged_model_still_gets_an_accuracy(self):
        Y = indicator([[0], [1]], 3)
        scores = np.full((2, 3), np.nan, dtype=np.float32)
        assert precision_at_k(scores, Y, ks=(1,))[1] == 0.5  # lowest id wins

    def test_k_clamped_to_width(self):
        scores = np.array([[3.0, 1.0, 2.0]], dtype=np.float32)
        assert np.array_equal(topk_indices(scores, 99), [[0, 2, 1]])

    def test_invalid_inputs(self):
        with pytest.raises(DataFormatError):
            topk_indices(np.zeros(4, dtype=np.float32), 1)
        with pytest.raises(DataFormatError):
            topk_indices(np.zeros((1, 4), dtype=np.float32), 0)


def _topk_blocks():
    """Named score blocks that stress the tie-break, ``-inf`` and NaN rules."""
    rng = np.random.default_rng(7)
    L = 24
    normal = rng.normal(size=(17, L)).astype(np.float32)
    heavy_ties = rng.integers(0, 3, size=(17, L)).astype(np.float32)
    all_equal = np.full((5, L), 0.25, dtype=np.float32)
    all_equal[1] = -np.inf  # every pick of the row is -inf
    few_finite = np.full((6, L), -np.inf, dtype=np.float32)
    for i in range(6):  # row i has i finite values, fewer than most k
        few_finite[i, rng.choice(L, size=i, replace=False)] = rng.normal(size=i)
    real_neg_inf = heavy_ties.copy()
    real_neg_inf[rng.random(real_neg_inf.shape) < 0.3] = -np.inf
    nan_some_columns = normal.copy()
    nan_some_columns[:, [2, 11]] = np.nan
    nan_some_columns[3, 5] = np.inf
    nan_everywhere = np.full((4, L), np.nan, dtype=np.float32)
    return {
        "normal": normal,
        "heavy_ties": heavy_ties,
        "all_equal": all_equal,
        "few_finite": few_finite,
        "real_neg_inf": real_neg_inf,
        "nan_some_columns": nan_some_columns,
        "nan_everywhere": nan_everywhere,
        "no_rows": np.empty((0, L), dtype=np.float32),
        "float64": rng.integers(0, 4, size=(9, L)).astype(np.float64),
        "fortran": np.asfortranarray(heavy_ties),
        "strided": rng.integers(0, 3, size=(17, 2 * L)).astype(np.float32)[:, ::2],
    }


class TestTopkAgainstOracle:
    """The shipped kernel vs the pre-argmax-rounds one in tests/reference.py."""

    @pytest.mark.parametrize("name", sorted(_topk_blocks()))
    @pytest.mark.parametrize("k", [1, 2, 5, 23, 24, 27])  # .., L-1, L, L+3
    def test_same_ids_and_input_untouched(self, name, k):
        scores = _topk_blocks()[name]
        before = scores.tobytes(order="A")
        got = topk_indices(scores, k)
        assert scores.tobytes(order="A") == before  # bit-identical, NaN too
        want = reference.topk_indices(scores, k)
        assert got.shape == want.shape == (scores.shape[0], min(k, 24))
        assert np.array_equal(got, want)

    def test_blocks_of_rows_rank_like_one_block(self, monkeypatch):
        """More rows than one working copy holds: every block is ranked,
        and a block that needs the general path sends the whole call there."""
        from repro.sparse import metrics

        monkeypatch.setattr(metrics, "_ROUNDS_BLOCK", 4 * 24)
        blocks = _topk_blocks()
        for name in ("heavy_ties", "real_neg_inf", "nan_some_columns"):
            scores = blocks[name]
            for k in (1, 3, 24):
                assert np.array_equal(
                    topk_indices(scores, k), reference.topk_indices(scores, k)
                )

    @pytest.mark.parametrize("k", [31, 32, 33, 40])
    def test_both_sides_of_the_crossover_constant(self, k):
        from repro.sparse.metrics import ARGMAX_ROUNDS_MAX_K

        assert ARGMAX_ROUNDS_MAX_K == 32
        rng = np.random.default_rng(k)
        scores = rng.integers(0, 6, size=(11, 80)).astype(np.float32)
        assert np.array_equal(
            topk_indices(scores, k), reference.topk_indices(scores, k)
        )

    def test_integer_scores_take_the_general_path(self):
        scores = np.random.default_rng(3).integers(-4, 4, size=(6, 12))
        for k in (1, 4):
            assert np.array_equal(
                topk_indices(scores, k), reference.topk_indices(scores, k)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 6), st.integers(1, 12), st.integers(1, 14),
        st.integers(0, 2**32 - 1),
    )
    @example(1, 2, 2, 3)  # [[inf, -inf]]: the second pick is a masked entry
    def test_random_small_blocks(self, n, L, k, seed):
        rng = np.random.default_rng(seed)
        pool = np.array([-np.inf, -1.0, 0.0, 0.0, 2.5, np.inf, np.nan],
                        dtype=np.float32)
        scores = pool[rng.integers(0, pool.size, size=(n, L))]
        assert np.array_equal(
            topk_indices(scores, k), reference.topk_indices(scores, k)
        )
