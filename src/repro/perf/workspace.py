"""Reusable forward/backward buffers — the allocation-free step arena.

Every ``SparseMLP`` training step needs one dense scratch matrix per layer
in each direction (activations going forward, deltas going backward). Left
to numpy, each of those is a fresh allocation per step: for an XML-sized
output layer the logits buffer alone is ``batch × n_labels`` floats, and
the allocator + page-fault cost recurs at every one of the tens of
thousands of steps in a run.

:class:`Workspace` owns those buffers and leases them out per step. Buffers
are bucketed by batch-size *capacity* (next power of two), so the adaptive
trainer's continuously varying batch sizes map onto a handful of physical
allocations; a request for ``n`` rows returns a contiguous ``buf[:n]``
view. The same object fronts the sparse out-buffer kernels used by the
input layer:

- :func:`spmm_into` — ``out = X @ W`` via ``csr_matvecs`` accumulation
  into a zeroed workspace buffer (bit-for-bit scipy's product, which calls
  the same C routine on a fresh allocation);
- :func:`spmm_t_into` — ``out = X.T @ delta`` by reading the CSR arrays
  *as* their zero-copy CSC transpose (``csc_matvecs``), writing straight
  into the gradient view instead of materializing an ``(F, h)`` temporary.

A workspace is single-flight: one step borrows buffers, finishes, and the
next step reuses them. The discrete-event trainers interleave GPU managers
*between* steps, never inside one, so one workspace per trainer is safe.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp

from repro.perf import profile as _profile

try:  # pragma: no cover - import guard exercised implicitly
    from scipy.sparse import _sparsetools

    _HAVE_SPARSETOOLS = hasattr(_sparsetools, "csr_matvecs") and hasattr(
        _sparsetools, "csc_matvecs"
    )
except ImportError:  # pragma: no cover - version-dependent fallback
    _sparsetools = None
    _HAVE_SPARSETOOLS = False

__all__ = ["Workspace", "spmm_into", "spmm_t_into"]


def _capacity(n: int) -> int:
    """Bucket size: next power of two ≥ n (min 32 keeps tiny batches shared)."""
    return max(32, 1 << (n - 1).bit_length())


def spmm_into(X: sp.csr_matrix, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = X @ W`` without allocating the product.

    Matches scipy's ``X @ W`` bit-for-bit: scipy runs the identical
    ``csr_matvecs`` accumulation, just on a buffer it allocates per call.
    """
    prof = _profile.active
    if prof is not None:
        t0 = perf_counter()
        _spmm_into(X, W, out)
        prof.add("spmm", perf_counter() - t0, units=X.nnz)
        return out
    return _spmm_into(X, W, out)


def _spmm_into(X: sp.csr_matrix, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    if _HAVE_SPARSETOOLS and W.flags.c_contiguous and out.flags.c_contiguous:
        out[...] = 0.0
        n, f = X.shape
        _sparsetools.csr_matvecs(
            n, f, W.shape[1], X.indptr, X.indices, X.data, W.ravel(), out.ravel()
        )
        return out
    out[...] = X @ W  # pragma: no cover - fallback without _sparsetools
    return out


def spmm_t_into(X: sp.csr_matrix, delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = X.T @ delta`` straight into ``out`` (e.g. a grad view).

    The CSR arrays of ``X`` *are* the CSC representation of ``X.T`` —
    a zero-copy transpose — so ``csc_matvecs`` computes the product with no
    ``(n_features, h)`` temporary. Bit-for-bit equal to scipy's
    ``X.T @ delta`` (same C routine).
    """
    prof = _profile.active
    if prof is not None:
        t0 = perf_counter()
        _spmm_t_into(X, delta, out)
        prof.add("spmm_t", perf_counter() - t0, units=X.nnz)
        return out
    return _spmm_t_into(X, delta, out)


def _spmm_t_into(
    X: sp.csr_matrix, delta: np.ndarray, out: np.ndarray
) -> np.ndarray:
    if _HAVE_SPARSETOOLS and delta.flags.c_contiguous and out.flags.c_contiguous:
        out[...] = 0.0
        n, f = X.shape
        _sparsetools.csc_matvecs(
            f, n, delta.shape[1], X.indptr, X.indices, X.data,
            delta.ravel(), out.ravel(),
        )
        return out
    out[...] = (X.T @ delta).astype(out.dtype, copy=False)  # pragma: no cover
    return out


class Workspace:
    """Batch-size-bucketed scratch buffers for one trainer's hot loop."""

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        # (tag, capacity, width, dtype as passed) -> (capacity, width) buffer.
        self._buffers: Dict[Tuple[str, int, int, type], np.ndarray] = {}

    def buffer(
        self, tag: str, n: int, width: int, dtype: type = np.float32
    ) -> np.ndarray:
        """A ``(n, width)`` scratch view, reused across steps.

        ``tag`` namespaces concurrent leases within one step (e.g. the
        forward activation and backward delta of the same layer). Buffers
        default to float32; the LSH kernel also leases uint8 bitmap and
        int64 index scratch. Contents are NOT zeroed between leases.
        """
        cap = _capacity(n)
        key = (tag, cap, width, dtype)
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = np.empty((cap, width), dtype=dtype)
        return buf[:n]
