"""XML evaluation metrics.

The paper reports **top-1 accuracy** on the test set: the fraction of test
samples whose highest-scoring predicted label is one of their true labels
(identical to precision@1 in the XML literature). P@3 and P@5 — the other
standard XML metrics — are provided for completeness and used by the
extended analyses.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import DataFormatError
from repro.perf.gather import CSR

__all__ = ["topk_indices", "precision_at_k", "label_keys", "has_label"]


#: Largest ``k`` ranked by rounds of ``argmax``; past it one partition pass
#: beats ``k`` passes over the row (measured: ``bench_hotpath`` ``k_sweep``).
ARGMAX_ROUNDS_MAX_K = 32
_ROUNDS_BLOCK = 1 << 18  # scores per block of rows: bounds the masked copy


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` label ids per row, best-first, deterministic under ties.

    Ties are broken toward the **lowest label id** — the same order a stable
    argsort of ``-scores`` produces — on every execution path, so the rounds
    of ``argmax`` (small ``k``), the O(L) ``argpartition`` path and the full
    sort return identical ids. (Bare ``argpartition`` picks an arbitrary
    subset of the labels tied at the k-th score, which would make
    LSH-vs-exact recall reports flap.) NaN ranks last, as ``-inf``: a
    diverged model still gets a ranking (an all-NaN row yields the lowest
    ids) and reaches the non-finite diagnosis instead of dying here.
    ``scores`` is never written to.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise DataFormatError(f"scores must be 2-D, got shape {scores.shape}")
    k = int(k)
    if k < 1:
        raise DataFormatError(f"k must be a positive integer, got {k}")
    k = min(k, scores.shape[1])
    if 1 <= k <= ARGMAX_ROUNDS_MAX_K and scores.dtype.kind == "f":
        top = _topk_argmax_rounds(scores, k)
        if top is not None:
            return top
    return _topk_partition(scores, k)


def _topk_argmax_rounds(scores: np.ndarray, k: int) -> Optional[np.ndarray]:
    """``k`` rounds of "pick each row's ``argmax``, mask it with ``-inf``";
    ``None`` when that is not a ranking and the general path must be taken.

    ``argmax`` returns the *first* maximum, so a round picks the lowest id
    among the best unpicked scores provided every masked entry sits strictly
    below every unpicked one: every pick must be ``> -inf``. Picks never
    increase, so the last vouches for all; NaN orders above every number, so
    a row's NaN is its first pick, and ``minimum`` carries it into the one
    test. ``k == 1`` masks nothing and reads ``scores`` in place.
    """
    n, L = scores.shape
    top = np.empty((n, k), dtype=np.intp)
    step = max(1, _ROUNDS_BLOCK // L)
    for start in range(0, n, step):
        work = scores[start:start + step]
        if k > 1:
            work = np.array(work, order="C")  # the caller's rows stay intact
        rows = np.arange(work.shape[0])
        picks = top[start:start + step]
        for j in range(k):
            col = picks[:, j] = work.argmax(axis=1)
            if j == 0:
                first = work[rows, col]
            if j < k - 1:
                work[rows, col] = -np.inf
        if not (np.minimum(first, work[rows, col]) > -np.inf).all():
            return None
    return top


def _topk_partition(scores: np.ndarray, k: int) -> np.ndarray:
    """The general path: any ``k`` and dtype, NaN ranked as ``-inf``."""
    nan = np.isnan(scores)
    if nan.any():
        scores = np.where(nan, -np.inf, scores)
    n, L = scores.shape
    if k == L:
        # Every column is requested: nothing to partition, rank in full.
        return np.argsort(-scores, axis=1, kind="stable")
    # Partition finds the k-th largest *value* per row; the deterministic
    # member set is then "every score above it, plus the lowest-id ties".
    part = np.argpartition(scores, L - k, axis=1)[:, L - k:]
    thresh = np.take_along_axis(scores, part, axis=1).min(axis=1, keepdims=True)
    above = scores > thresh
    n_above = above.sum(axis=1, keepdims=True)
    tie = scores == thresh
    tie_rank = np.cumsum(tie, axis=1)  # 1-based rank of each tie, id-ascending
    keep = above | (tie & (tie_rank <= k - n_above))
    # Row-major nonzero → ids ascend within each row; exactly k kept per row.
    topk = np.nonzero(keep)[1].reshape(n, k)
    kept_scores = np.take_along_axis(scores, topk, axis=1)
    order = np.argsort(-kept_scores, axis=1, kind="stable")
    return np.take_along_axis(topk, order, axis=1)


def label_keys(Y: CSR) -> np.ndarray:
    """``row * n_labels + label`` of each nonzero of canonical ``Y``,
    ascending, then a sentinel no search passes: what :func:`has_label`
    searches."""
    n, L = Y.shape
    keys = np.repeat(np.arange(n, dtype=np.int64) * L, np.diff(Y.indptr))
    keys += Y.indices
    return np.append(keys[Y.data != 0], np.iinfo(np.int64).max)


def has_label(keys: np.ndarray, n_labels: int, rows, labels) -> np.ndarray:
    """``Y[rows, labels] != 0`` elementwise: one binary search per pair
    in ``keys = label_keys(Y)``."""
    want = rows * np.int64(n_labels) + labels
    return keys[np.searchsorted(keys, want)] == want


def precision_at_k(
    scores: np.ndarray,
    Y: CSR,
    ks: Sequence[int] = (1, 3, 5),
) -> Dict[int, float]:
    """Precision@k for each k in ``ks``.

    ``P@k = mean_i |topk(scores_i) ∩ true_i| / k``; an empty split scores
    0.0. Ranking goes through :func:`topk_indices`, so the cost is O(L) per
    sample rather than a full sort over the (huge in XML) label space.
    """
    n, L = scores.shape
    if Y.shape != (n, L):
        raise DataFormatError(
            f"labels shape {Y.shape} does not match scores shape {scores.shape}"
        )
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise DataFormatError(f"ks must be positive integers, got {ks}")
    if n == 0:
        return {k: 0.0 for k in ks}
    kmax = min(ks[-1], L)
    topk = topk_indices(scores, kmax)  # (n, kmax) best-first, tie-stable

    # Membership test against the sparse truth without densifying Y.
    rows = np.repeat(np.arange(n), kmax)
    hits = has_label(label_keys(Y), L, rows, topk.ravel()).reshape(n, kmax)

    out: Dict[int, float] = {}
    for k in ks:
        kk = min(k, kmax)
        out[k] = float(hits[:, :kk].sum() / (n * kk))
    return out
