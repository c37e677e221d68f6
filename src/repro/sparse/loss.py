"""Multi-label softmax cross-entropy (the paper's training objective).

The evaluation model is a 3-layer MLP with "softmax multi-class probability
and cross-entropy loss" (§V-A), following SLIDE's XML setup: the target
distribution of a sample is **uniform over its true labels**, and the loss is
``CE(target, softmax(logits))``. The gradient w.r.t. logits is then simply
``softmax(logits) - target``.

Both come out of **one** stable softmax pass in the gradient's float32
buffer: the shifted logits are gathered at the ``nnz(Y)`` target entries
before ``exp`` overwrites them, and ``loss = (Σ_i log s_i − Σ_e t_e ·
shifted_e) / n`` then needs only the row sums ``s`` the softmax divides by
anyway — ``n + nnz(Y)`` values, accumulated in float64.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DataFormatError

__all__ = ["softmax_cross_entropy", "label_targets"]


def label_targets(Y: sp.csr_matrix) -> Tuple[np.ndarray, np.ndarray]:
    """Target T of indicator ``Y`` — 1/k on each of a row's k true labels.

    Returns ``(entries, t)``, one element per label entry in CSR order:
    ``entries = row * L + col`` indexes the raveled ``(n, L)`` logits and
    ``t`` is the float32 weight. They depend on ``Y`` alone, so a batch
    builder computes them once per gathered window (``data.batching``).
    """
    n, L = Y.shape
    counts = Y.indptr[1:] - Y.indptr[:-1]
    if (counts == 0).any():
        raise DataFormatError("a sample without labels has no target distribution")
    entries = np.repeat(np.arange(n), counts)  # row of each entry, for now
    t = (1.0 / counts).astype(np.float32)[entries]
    entries *= L
    entries += Y.indices
    return entries, t


def _flat(p: np.ndarray, entries: np.ndarray):
    """``(view, index)`` reading ``p`` at ``entries`` without copying it."""
    if p.flags.c_contiguous:
        return p.reshape(-1), entries
    return p, tuple(np.divmod(entries, p.shape[1]))  # reshape would copy


def softmax_cross_entropy(
    logits: np.ndarray,
    Y: sp.csr_matrix,
    grad_out: np.ndarray = None,
    targets: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. ``logits``.

    Returns ``(loss, dlogits)`` where ``dlogits = (softmax(logits) - T) / n``
    for the uniform-over-true-labels target ``T`` — the ``1/n`` folds the
    batch-mean into the gradient so callers apply it directly. ``grad_out``
    (a float32 ``(n, L)`` array) receives ``dlogits`` without allocating;
    it may be ``logits`` itself when the caller is done with them, as
    ``SparseMLP.loss_and_grad`` is.
    ``targets`` is ``label_targets(Y)`` when the caller already holds it.
    """
    n, L = logits.shape
    if Y.shape != (n, L):
        raise DataFormatError(
            f"labels shape {Y.shape} does not match logits shape {logits.shape}"
        )
    if grad_out is not None and (
        grad_out.shape != (n, L) or grad_out.dtype != np.float32
    ):
        raise DataFormatError(
            f"grad_out must be a float32 {(n, L)} buffer, got "
            f"{grad_out.dtype} {grad_out.shape}"
        )
    entries, t = targets if targets is not None else label_targets(Y)

    # softmax(logits) by max-subtraction, pausing after the shift to read
    # the target entries before ``exp`` overwrites them. The row maximum is
    # read at ``argmax``: ``max(axis=1)``'s value (NaN, ±inf, ties; a zero
    # maximum may differ in sign, which ``exp`` erases) at a third of its cost
    # on narrow rows.
    row_max = logits[np.arange(n), logits.argmax(axis=1)]
    p = np.subtract(logits, row_max[:, None], out=grad_out)
    flat, at = _flat(p, entries)
    shifted_t = flat[at]
    np.exp(p, out=p)
    s = p.sum(axis=1, keepdims=True)
    # loss = -sum_e t_e * (shifted_e - log s_row(e)) / n; T's rows sum to one.
    log_s = np.log(s, dtype=np.float64).sum()
    loss = float((log_s - np.multiply(t, shifted_t, dtype=np.float64).sum()) / n)
    p /= s
    if p.dtype != np.float32:  # float64 logits without a buffer
        p = p.astype(np.float32)
        flat, at = _flat(p, entries)
    # subtract sparse targets in place, then scale by 1/n
    flat[at] -= t
    p /= np.float32(n)
    return loss, p
