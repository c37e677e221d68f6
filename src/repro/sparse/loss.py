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

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DataFormatError

__all__ = ["softmax", "softmax_cross_entropy"]


def softmax(logits: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Row-wise softmax, stable via max-subtraction.

    ``out`` (when given) receives the result in place of a fresh allocation.
    """
    shifted = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=1, keepdims=True)
    return shifted


def softmax_cross_entropy(
    logits: np.ndarray, Y: sp.csr_matrix, grad_out: np.ndarray = None
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. ``logits``.

    Returns ``(loss, dlogits)`` where ``dlogits = (softmax(logits) - T) / n``
    for the uniform-over-true-labels target ``T`` — the ``1/n`` folds the
    batch-mean into the gradient so callers apply it directly. ``grad_out``
    (a float32 ``(n, L)`` buffer, e.g. from a
    :class:`~repro.perf.workspace.Workspace`) receives ``dlogits`` without
    allocating; it may be ``logits`` itself when the caller is done with them.
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
    # Target T: 1/k on each of a row's k true labels, as (rows, cols, t).
    counts = Y.indptr[1:] - Y.indptr[:-1]
    if (counts == 0).any():
        raise DataFormatError("a sample without labels has no target distribution")
    rows = np.repeat(np.arange(n), counts)
    cols = Y.indices
    t = np.repeat((1.0 / counts).astype(np.float32), counts)

    # softmax(logits) exactly as ``softmax`` runs it, pausing after the shift
    # to read the target entries before ``exp`` overwrites them.
    p = np.subtract(logits, logits.max(axis=1, keepdims=True), out=grad_out)
    shifted_t = p[rows, cols]
    np.exp(p, out=p)
    s = p.sum(axis=1, keepdims=True)
    # loss = -sum_e t_e * (shifted_e - log s_row(e)) / n; T's rows sum to one.
    log_s = np.log(s, dtype=np.float64).sum()
    loss = float((log_s - np.multiply(t, shifted_t, dtype=np.float64).sum()) / n)
    p /= s
    if p.dtype != np.float32:  # float64 logits without a buffer
        p = p.astype(np.float32)
    # subtract sparse targets in place, then scale by 1/n
    p[rows, cols] -= t
    p /= np.float32(n)
    return loss, p
