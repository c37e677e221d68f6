"""Batched multi-probe LSH top-k inference: score and rank the candidates.

Retrieval is the index's own job — :meth:`SimHashLSH.candidates
<repro.baselines.slide.lsh.SimHashLSH.candidates>` returns a query block's
candidate sets in CSR form, ``(row_ptr, candidate_ids)`` with ids sorted
ascending within each row. This module does the rest of the pipeline over
the whole block, never touching the dense ``(n, L)`` grid:

1. **score** — one blocked gather-dot (``einsum('ej,ej->e')`` over paired
   row gathers of the hidden block and the transposed output weights)
   computes every candidate logit in O(entries · h); the chunked SLIDE
   kernel computes its active-entry logits through the same
   :func:`gather_dot`;
2. **top-k** — rows with ≥ k candidates are ranked together by packing
   their logits into a ``-inf``-padded rectangle and reusing the
   deterministic :func:`~repro.sparse.metrics.topk_indices` (pads can
   never enter the top-k of a row with k real entries, and ascending
   candidate position == ascending label id, so the tie-break is identical
   to the exact path); underfull rows list their candidates best-first and
   pad with the lowest unretrieved label ids — the rare case by
   construction.

``tests/test_perf_lsh_topk.py`` checks the pipeline against the per-row
oracle in ``tests/reference.py`` (dict tables, one GEMV and one 1-row
top-k per query) for bit-identical ids on randomized snapshots, plus the
empty-row / k > L / all-underfull edges.
"""

from __future__ import annotations

from time import perf_counter
from typing import Tuple

import numpy as np

from repro.perf import profile as _profile
from repro.sparse.metrics import topk_indices

__all__ = ["gather_dot", "score_entries", "segmented_topk", "lsh_topk"]

#: Entries per gather block in :func:`gather_dot` — bounds the paired
#: row-gather scratch at two ``(2**15, hidden)`` float32 temporaries.
_GATHER_BLOCK = 1 << 15


def _segment_arange(counts: np.ndarray) -> np.ndarray:
    """``concat(arange(c) for c in counts)`` without a Python loop."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def gather_dot(
    H: np.ndarray, W_T: np.ndarray, rows: np.ndarray, ids: np.ndarray
) -> np.ndarray:
    """``H[rows[e]] · W_T[ids[e]]`` per flat entry, in bounded blocks."""
    out = np.empty(ids.size, dtype=np.float32)
    for s in range(0, ids.size, _GATHER_BLOCK):
        e = min(s + _GATHER_BLOCK, ids.size)
        np.einsum("ej,ej->e", H[rows[s:e]], W_T[ids[s:e]], out=out[s:e])
    return out


def score_entries(
    H: np.ndarray,
    W_T: np.ndarray,
    b: np.ndarray,
    rows: np.ndarray,
    ids: np.ndarray,
) -> np.ndarray:
    """Logits at the flat ``(rows, ids)`` entries — gather-dot plus bias.

    ``H`` is the ``(n, h)`` hidden block, ``W_T`` the row-major ``(L, h)``
    transpose of the output weights (contiguous label rows make the gather
    stream), ``b`` the ``(L,)`` bias. Cost is O(entries · h) with scratch
    bounded by the gather block, independent of ``n × L``.
    """
    prof = _profile.active
    t0 = perf_counter() if prof is not None else 0.0
    logits = gather_dot(H, W_T, rows, ids)
    logits += b[ids]
    if prof is not None:
        prof.add("lsh_score", perf_counter() - t0, units=ids.size)
    return logits


def segmented_topk(
    indptr: np.ndarray,
    ids: np.ndarray,
    logits: np.ndarray,
    L: int,
    k: int,
) -> np.ndarray:
    """Deterministic top-``k`` over CSR-segmented candidate logits.

    Matches the per-row oracle exactly: rows with ≥ k candidates rank
    them with :func:`topk_indices` semantics (ties toward the lowest label
    id — candidate ids ascend within a row, so positional tie-break is the
    id tie-break); rows with < k candidates list all candidates best-first
    and pad with the lowest-id unretrieved labels.
    """
    prof = _profile.active
    t0 = perf_counter() if prof is not None else 0.0
    n = indptr.size - 1
    out = np.empty((n, k), dtype=np.int64)
    counts = np.diff(indptr)
    full = counts >= k

    if full.any():
        fcounts = counts[full]
        maxc = int(fcounts.max())
        n_full = int(full.sum())
        padded = np.full((n_full, maxc), -np.inf, dtype=np.float32)
        entry_full = np.repeat(full, counts)
        padded[
            np.repeat(np.arange(n_full, dtype=np.int64), fcounts),
            _segment_arange(fcounts),
        ] = logits[entry_full]
        # Pads sort strictly below every finite logit, so with ≥ k real
        # entries per row the member set and tie behaviour are exactly
        # those of topk_indices on the un-padded row.
        best = topk_indices(padded, k)
        starts_full = indptr[:-1][full]
        out[full] = ids[starts_full[:, None] + best]

    if not full.all():
        # Underfull rows, one at a time: rare by construction (the bench
        # regime retrieves ≫ k candidates).
        for i in np.flatnonzero(~full):
            cand = ids[indptr[i]:indptr[i + 1]]
            lg = logits[indptr[i]:indptr[i + 1]]
            missing = np.setdiff1d(
                np.arange(min(L, k + cand.size), dtype=np.int64), cand
            )[: k - cand.size]
            order = (
                topk_indices(lg[None, :], cand.size)[0] if cand.size else []
            )
            out[i, : cand.size] = cand[order]
            out[i, cand.size:] = missing
    if prof is not None:
        prof.add("lsh_topk", perf_counter() - t0, units=n)
    return out


def lsh_topk(
    lsh,
    H: np.ndarray,
    W_T: np.ndarray,
    b: np.ndarray,
    k: int,
    *,
    n_probes: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """The whole pipeline: ``lsh.candidates`` → score → segmented top-k.

    Returns ``(topk_ids, candidate_counts)`` — the ``(n, k)`` best-first
    label ids and the per-row candidate-set sizes (the selectivity signal
    the crossover calibration feeds on). ``k`` must already be clamped to
    ``[1, L]`` by the caller.
    """
    indptr, ids = lsh.candidates(H, n_probes=n_probes)
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(H.shape[0], dtype=np.int64), counts)
    logits = score_entries(H, W_T, b, rows, ids)
    out = segmented_topk(indptr, ids, logits, lsh.n_items, k)
    return out, counts
