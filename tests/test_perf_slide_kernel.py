"""Chunked SLIDE kernel vs the per-sample reference at identical weights.

The kernel evaluates every sample's sampled-softmax gradient at the
chunk-start weights and applies them in one batched update. The reference
below does exactly that with the original per-sample numpy code, so the two
must agree to fp32 accumulation tolerance (different summation orders).
Independently of that reference, the update is checked against central
differences of the kernel's own loss, and its direct kernels against the
public scipy operators the deleted fallbacks called.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.slide.lsh import SimHashLSH
from repro.baselines.slide.sampler import ActiveLabelSampler
from repro.perf import gather, slide_kernel
from repro.perf.slide_kernel import slide_chunk_step
from tests import reference
from tests.reference import scipy_csr


def make_problem(chunk=32, F=150, H=24, L=80, seed=0, empty_row=None):
    rng = np.random.default_rng(seed)
    Xc = sp.random(
        chunk, F, density=0.08, format="csr", dtype=np.float32,
        random_state=rng,
    )
    if empty_row is not None:
        lil = Xc.tolil()
        lil[empty_row] = 0
        Xc = lil.tocsr()
    Xc.sum_duplicates()
    Xc.sort_indices()
    W1 = rng.normal(scale=0.2, size=(F, H)).astype(np.float32)
    b1 = rng.normal(scale=0.05, size=H).astype(np.float32)
    W2 = rng.normal(scale=0.2, size=(H, L)).astype(np.float32)
    b2 = rng.normal(scale=0.05, size=L).astype(np.float32)
    label_sets = [
        np.sort(rng.choice(L, size=rng.integers(1, 4), replace=False))
        for _ in range(chunk)
    ]
    return Xc, W1, b1, W2, b2, label_sets


def reference_chunk(Xc, H1, label_sets, actives, W1, b1, W2, b2, lr):
    """Per-sample reference: every gradient at chunk-start weights."""
    lr = np.float32(lr)
    W1_0, b1_0, W2_0, b2_0 = W1.copy(), b1.copy(), W2.copy(), b2.copy()
    dW1 = np.zeros_like(W1)
    db1 = np.zeros_like(b1)
    dW2 = np.zeros_like(W2)
    db2 = np.zeros_like(b2)
    loss_sum = 0.0
    for i, active in enumerate(actives):
        start, stop = Xc.indptr[i], Xc.indptr[i + 1]
        cols = Xc.indices[start:stop]
        vals = Xc.data[start:stop]
        h1 = H1[i]
        k = label_sets[i].size

        logits = h1 @ W2_0[:, active] + b2_0[active]
        logits = logits - logits.max()
        p = np.exp(logits)
        p /= p.sum()
        loss_sum += float(-np.log(np.maximum(p[:k], 1e-30)).mean())

        dlog = p.copy()
        dlog[:k] -= np.float32(1.0 / k)
        dh = W2_0[:, active] @ dlog
        dz1 = dh * (h1 > 0.0)
        np.add.at(dW2, (slice(None), active), np.outer(h1, dlog))
        np.add.at(db2, active, dlog)
        dW1[cols] += np.outer(vals, dz1)
        db1 += dz1
    W1 -= lr * dW1
    b1 -= lr * db1
    W2 -= lr * dW2
    b2 -= lr * db2
    return loss_sum


def run_both(chunk=32, seed=0, lr=0.01, empty_row=None):
    Xc, W1, b1, W2, b2, label_sets = make_problem(
        chunk=chunk, seed=seed, empty_row=empty_row
    )
    H1 = np.maximum(np.asarray(Xc @ W1) + b1, 0.0).astype(np.float32)

    lsh = SimHashLSH(W1.shape[1], n_tables=8, n_bits=5, seed=seed)
    lsh.rebuild(W2)
    sampler = ActiveLabelSampler(
        W2.shape[1], lsh, min_active=16, max_active=40, seed=seed
    )
    actives = sampler.sample_batch(H1, label_sets)
    label_counts = np.array([ls.size for ls in label_sets], dtype=np.int64)

    # Reference on copies, kernel on the originals.
    W1r, b1r, W2r, b2r = W1.copy(), b1.copy(), W2.copy(), b2.copy()
    loss_ref = reference_chunk(
        Xc, H1, label_sets, actives, W1r, b1r, W2r, b2r, lr
    )
    loss_ker = slide_chunk_step(
        Xc, H1.copy(), label_counts, actives, W1, b1, W2, b2, lr,
    )
    return (loss_ref, W1r, b1r, W2r, b2r), (loss_ker, W1, b1, W2, b2)


def assert_close(ref, ker):
    loss_ref, W1r, b1r, W2r, b2r = ref
    loss_ker, W1, b1, W2, b2 = ker
    assert loss_ker == pytest.approx(loss_ref, rel=1e-4)
    np.testing.assert_allclose(W1, W1r, rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(b1, b1r, rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(W2, W2r, rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(b2, b2r, rtol=1e-4, atol=1e-6)


class TestSlideChunkStep:
    def test_matches_per_sample_reference(self):
        ref, ker = run_both(chunk=32, seed=1)
        assert_close(ref, ker)

    def test_single_sample_chunk(self):
        ref, ker = run_both(chunk=1, seed=2)
        assert_close(ref, ker)

    def test_empty_feature_row(self):
        ref, ker = run_both(chunk=16, seed=3, empty_row=5)
        assert_close(ref, ker)

    def test_larger_lr_still_matches(self):
        ref, ker = run_both(chunk=32, seed=5, lr=0.05)
        assert_close(ref, ker)

    def test_sample_batch_matches_per_sample_sampling(self):
        """One block == row-at-a-time sampling from a twin RNG, whether each
        row is retrieved by the dict-table oracle or by ``sample``."""
        Xc, W1, b1, W2, b2, label_sets = make_problem(seed=6)
        H1 = np.maximum(np.asarray(Xc @ W1) + b1, 0.0).astype(np.float32)
        lsh = SimHashLSH(W1.shape[1], n_tables=8, n_bits=5, seed=6)
        lsh.rebuild(W2)
        batched, oracle, singly = (
            ActiveLabelSampler(
                W2.shape[1], lsh, min_active=16, max_active=40, seed=7
            )
            for _ in range(3)
        )
        actives = batched.sample_batch(H1, label_sets)
        tables = reference.DictTableLSH(lsh, W2)
        for i, ls in enumerate(label_sets):
            want = oracle._assemble(tables.query(H1[i]), ls)
            assert np.array_equal(actives[i], want)
            assert np.array_equal(singly.sample(H1[i], ls), want)

    def test_scipy_fallbacks_match_direct_kernels(self, monkeypatch):
        """The chunk's products through scipy's public ``X @ W`` and
        ``X.T @ delta`` (what the deleted ``_HAVE_SPARSETOOLS`` /
        ``_FAST_CTOR`` fallbacks ran): the same chunk updates to the same
        bits as the direct kernels."""
        for guard in ("_HAVE_SPARSETOOLS", "_FAST_CTOR"):
            assert not hasattr(gather, guard)
            assert not hasattr(slide_kernel, guard)
        _, fast = run_both(chunk=24, seed=4, empty_row=5)

        def public_spmm(X, W, out):
            out[...] = scipy_csr(X) @ W
            return out

        def public_spmm_t(X, delta, out):
            out[...] = scipy_csr(X).T @ delta
            return out

        monkeypatch.setattr(slide_kernel, "spmm_into", public_spmm)
        monkeypatch.setattr(slide_kernel, "spmm_t_into", public_spmm_t)
        _, slow = run_both(chunk=24, seed=4, empty_row=5)
        for want, got in zip(fast, slow):
            assert np.array_equal(got, want)


def step_on_copies(Xc, params, label_counts, actives, lr):
    """``slide_chunk_step`` on copies of ``params``, with ``H1`` recomputed
    from the copied ``W1`` / ``b1``; returns ``(loss_sum, params_after)``."""
    W1, b1, W2, b2 = (p.copy() for p in params)
    H1 = np.maximum(np.asarray(Xc @ W1) + b1, 0.0).astype(np.float32)
    loss = slide_chunk_step(Xc, H1, label_counts, actives, W1, b1, W2, b2, lr)
    return loss, (W1, b1, W2, b2)


class TestFiniteDifferences:
    """The update is the gradient of the loss the kernel returns.

    With ``lr = 1`` the kernel subtracts its gradient, so ``before - after``
    is that gradient; central differences of the summed loss (``lr = 0``,
    ``H1`` recomputed whenever ``W1`` / ``b1`` move) must agree on sampled
    coordinates of every parameter, active sets held fixed. Float32 losses
    and ``eps = 1e-2`` bound the agreement at ``|fd - g| <= 1e-3 + 1e-2 |g|``
    (measured: under 0.2% of that bound's scale). No hidden pre-activation
    lies within ``eps · max|x|`` of the ReLU kink, which the test asserts.
    """

    EPS = 1e-2

    @pytest.mark.parametrize("n_labels", [10, 128])  # dense, gather-dot logits
    def test_update_is_the_loss_gradient(self, n_labels):
        rng = np.random.default_rng(21)
        chunk, F, H = 4, 12, 5
        Xc = sp.random(
            chunk, F, density=0.4, format="csr", dtype=np.float32,
            random_state=rng,
        )
        Xc.sum_duplicates()
        Xc.sort_indices()
        params = tuple(
            rng.normal(scale=0.5, size=shape).astype(np.float32)
            for shape in ((F, H), (H,), (H, n_labels), (n_labels,))
        )
        label_counts = rng.integers(1, 3, size=chunk).astype(np.int64)
        actives = [
            rng.choice(n_labels, size=k + 3, replace=False).astype(np.int64)
            for k in label_counts
        ]
        Z1 = np.asarray(Xc @ params[0]) + params[1]
        assert np.abs(Z1).min() > self.EPS * max(1.0, Xc.data.max())

        _, after = step_on_copies(Xc, params, label_counts, actives, 1.0)
        coords = {
            0: [(f, j) for f in np.unique(Xc.indices)[:3] for j in (0, H - 1)],
            1: [(j,) for j in range(H)],
            2: [(j, int(c)) for j in (0, H - 1) for c in actives[0][:3]],
            3: [(int(c),) for c in actives[1]],
        }
        for p, picked in coords.items():
            grad = params[p] - after[p]
            for at in picked:
                shifted = []
                for sign in (1, -1):
                    moved = [q.copy() for q in params]
                    moved[p][at] += sign * self.EPS
                    shifted.append(step_on_copies(
                        Xc, moved, label_counts, actives, 0.0)[0])
                fd = (shifted[0] - shifted[1]) / (2 * self.EPS)
                assert abs(fd - grad[at]) <= 1e-3 + 1e-2 * abs(grad[at]), (
                    p, at, fd, grad[at]
                )
