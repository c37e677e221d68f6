"""Vectorized chunked SLIDE kernel.

The reference SLIDE update is one Python iteration per sample: a sparse
GEMV, an LSH retrieval, a sampled softmax over ~a few hundred active
labels, two outer-product updates. Interpreted-loop overhead dominates —
each sample pays dozens of small-numpy-call constants for microseconds of
arithmetic.

This kernel processes a *chunk* of samples at once with the chunk-start
weights, and its cost scales with the **total number of active (sample,
label) entries** — never with ``chunk × n_labels``, which is what a naive
union-GEMM degenerates to once the per-sample active sets cover most
labels between rebuilds:

1. the active label sets (true ∪ LSH-retrieved, built per sample — LSH
   bucket probing is inherently per-item) are flattened into one ragged
   ``(rows, cols)`` entry list with a CSR-style row pointer;
2. logits are computed only at those entries — the blocked gather-dot the
   LSH scorer uses (:func:`repro.perf.lsh_topk.gather_dot`), or one BLAS
   GEMM sampled at the entries when they cover enough of the dense grid —
   and each sample's softmax is a segment reduction (``ufunc.reduceat``)
   over its own slice of the flat array;
3. the resulting ``dlogits`` *are* a CSR matrix over the active pattern,
   so the hidden backprop is one sparse ``dlog @ W2.T`` product, the
   output-layer update one sparse ``dlog.T @ H1`` product, and the
   input-layer update one compacted-CSC ``X.T @ dZ1`` product over the
   chunk's touched feature rows.

Semantically this applies the chunk's per-sample gradients — each evaluated
at the chunk-start weights — in one batched update, instead of strictly
sequentially. That *is* SLIDE's Hogwild regime (threads race on a shared
model and compute gradients against stale weights); the per-sample
sequential reference was itself an idealization. ``tests/test_perf_slide``
verifies the kernel matches the per-sample reference evaluated at identical
weights to fp32 tolerance.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

import numpy as np

from repro.perf import profile as _profile
from repro.perf.gather import CSR, spmm_into, spmm_t_into
from repro.perf.lsh_topk import _segment_arange, gather_dot

__all__ = ["slide_chunk_step"]


def slide_chunk_step(
    Xc: CSR,
    H1: np.ndarray,
    label_counts: np.ndarray,
    actives: Sequence[np.ndarray],
    W1: np.ndarray,
    b1: np.ndarray,
    W2: np.ndarray,
    b2: np.ndarray,
    lr: float,
) -> float:
    """One chunked sampled-softmax SGD update, in place; returns summed loss.

    Parameters mirror the per-sample reference: ``Xc`` is the chunk's
    feature rows (CSR), ``H1`` the post-ReLU hidden activations computed at
    the current weights, ``actives[i]`` sample *i*'s active label ids with
    its ``label_counts[i]`` true labels occupying the front (the
    :class:`~repro.baselines.slide.sampler.ActiveLabelSampler` contract).
    All gradients are evaluated at the passed-in (chunk-start) weights;
    updates are applied once at the end.
    """
    prof = _profile.active
    t0 = perf_counter() if prof is not None else 0.0
    chunk, h_dim = H1.shape
    n_labels = W2.shape[1]
    lr32 = np.float32(lr)
    k = np.asarray(label_counts, dtype=np.int64)
    lens = np.fromiter((a.size for a in actives), dtype=np.int64, count=chunk)
    cols = np.concatenate(actives).astype(np.int64, copy=False)
    total = cols.size
    indptr = np.empty(chunk + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(lens, out=indptr[1:])
    seg_starts = indptr[:-1]
    rows_rep = np.repeat(np.arange(chunk, dtype=np.int64), lens)

    H1 = np.ascontiguousarray(H1, dtype=np.float32)
    # Row-major W2.T (pre-update) so the sparse hidden backprop scans
    # contiguous label rows; also the accumulator for the output update.
    W2T = np.ascontiguousarray(W2.T)

    # Logits at the active entries only. Two regimes: when the entries
    # cover a non-trivial fraction of the dense (chunk, n_labels) grid —
    # LSH buckets saturating between rebuilds — one BLAS GEMM plus a flat
    # take beats any per-entry gather; otherwise the blocked gather-dot
    # keeps the cost O(total · h).
    if total * 16 > chunk * n_labels:
        logits = (H1 @ W2).ravel().take(rows_rep * n_labels + cols)
    else:
        logits = gather_dot(H1, W2T, rows_rep, cols)
    logits += b2[cols]

    # Per-sample softmax as segment reductions over the flat entry array.
    seg_max = np.maximum.reduceat(logits, seg_starts)
    logits -= np.repeat(seg_max, lens)
    P = np.exp(logits, out=logits)
    seg_sum = np.add.reduceat(P, seg_starts)
    P /= np.repeat(seg_sum, lens)

    # True labels sit at the front of each sample's segment.
    true_sel = np.repeat(seg_starts, k) + _segment_arange(k)
    true_rows = np.repeat(np.arange(chunk, dtype=np.int64), k)

    p_true = P[true_sel]
    per_sample_loss = np.bincount(
        true_rows, weights=-np.log(np.maximum(p_true, 1e-30)), minlength=chunk
    ) / k
    loss_sum = float(per_sample_loss.sum())

    # dlogits: softmax minus the uniform-over-true-labels target. The flat
    # array with (cols, indptr) *is* a CSR matrix over the active pattern.
    dlog = P
    dlog[true_sel] -= np.repeat(1.0 / k.astype(np.float32), k)
    # Columns are unsorted within rows: fine for the two products, which
    # read each row's entries in order and never search them.
    dcsr = CSR(dlog, cols, indptr, (chunk, n_labels))

    # Hidden backprop: one sparse product against the pre-update weights.
    dH = np.empty((chunk, h_dim), dtype=np.float32)
    spmm_into(dcsr, W2T, dH)  # dlog @ W2.T
    dZ1 = np.multiply(dH, H1 > 0.0, out=dH)

    # Output layer: G2 = dlog.T @ H1 is (n_labels, h) with nonzeros only in
    # touched label rows. Applying it on the contiguous W2T copy and
    # transpose-copying back is much faster than a strided ``W2 -= G2.T``
    # (numpy's copy path blocks the transpose; the subtract path doesn't).
    G2 = np.empty((n_labels, h_dim), dtype=np.float32)
    spmm_t_into(dcsr, H1, G2)
    G2 *= lr32
    W2T -= G2
    np.copyto(W2, W2T.T)
    b2 -= lr32 * np.bincount(cols, weights=dlog, minlength=n_labels).astype(
        np.float32
    )

    # Input layer: compact the chunk's CSC over its touched feature rows so
    # the X.T @ dZ1 product and the row update stay O(touched) in F.
    touched, inverse = np.unique(Xc.indices, return_inverse=True)
    if touched.size:
        compact = CSR(
            Xc.data,
            inverse.astype(Xc.indices.dtype, copy=False),
            Xc.indptr,
            (chunk, touched.size),
        )
        G1 = np.empty((touched.size, h_dim), dtype=np.float32)
        spmm_t_into(compact, np.ascontiguousarray(dZ1), G1)
        W1[touched] -= lr32 * G1
    b1 -= lr32 * dZ1.sum(axis=0)
    if prof is not None:
        prof.add("slide_chunk", perf_counter() - t0, units=chunk)
    return loss_sum
