"""Direct calls into scipy's sparse C kernels: the CSR row gather and the
step's two sparse-dense products.

This is the one module that imports the private ``scipy.sparse._sparsetools``
(``tests/test_no_monoliths.py`` holds that), so its fallbacks live here too:
each kernel below has a public-scipy branch for a scipy without the routine,
bit-identical to the direct call (``tests/test_perf_gather.py``).

``dataset.X[idx]`` goes through scipy's generic fancy-indexing machinery:
index validation, bounds canonicalization, a C gather, and a checked matrix
construction — tens of microseconds of constant overhead per call before any
data moves.

:class:`RowGatherer` performs the same row gather with cached segment
lengths, one cumsum, and a direct call to scipy's ``csr_row_index`` C
kernel (per-row memcpy — the same routine fancy indexing bottoms out in,
minus all the layers above it), handing the result to a validated fast CSR
constructor. Every gather returns fresh arrays: reusing output buffers
measured within 3% of ``np.empty`` from 1 to 600 rows, so there is no pool
and nothing ever aliases. Training gathers a window of the shuffled stream
at a time and :func:`slice_rows` cuts every batch out of it as zero-copy
views; serving gathers a block of exact-path rows per ``ServeRun.flush``.

The output is bit-for-bit identical to ``matrix[idx]``: same data, same
column indices, same row pointer, same dtypes (``tests/test_perf_gather``).

:func:`spmm_into` (``X @ W``, ``csr_matvecs``) and :func:`spmm_t_into`
(``X.T @ delta``, ``csc_matvecs`` over the CSR arrays read as their
zero-copy CSC transpose) write into an ``out`` the caller passes: a fresh
array for an activation, the gradient view itself for ``gW1``. They are the
same C routines scipy's operators call, minus the operator dispatch, which
measured 24% of ``train-micro`` host time (DESIGN.md §6).
"""

from __future__ import annotations

from time import perf_counter
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.perf import profile as _profile

try:
    from scipy.sparse import _sparsetools
except ImportError:  # pragma: no cover - version-dependent fallback
    _sparsetools = None

_HAVE_ROW_INDEX = hasattr(_sparsetools, "csr_row_index")
_HAVE_SPARSETOOLS = hasattr(_sparsetools, "csr_matvecs") and hasattr(
    _sparsetools, "csc_matvecs"
)

__all__ = ["slice_rows", "RowGatherer", "spmm_into", "spmm_t_into"]


def _build_csr_fast(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: Tuple[int, int],
) -> sp.csr_matrix:
    """Wrap pre-validated CSR arrays without constructor checks."""
    m = sp.csr_matrix.__new__(sp.csr_matrix)
    m.data = data
    m.indices = indices
    m.indptr = indptr
    m._shape = shape
    # Rows are copied verbatim from a canonical matrix, so both flags hold.
    m.has_sorted_indices = True
    m.has_canonical_format = True
    return m


def _fast_ctor_works() -> bool:
    """One-time self-test of the unchecked constructor against scipy."""
    try:
        data = np.array([1.0, 2.0], dtype=np.float32)
        indices = np.array([1, 0], dtype=np.int32)
        indptr = np.array([0, 1, 1, 2], dtype=np.int32)
        fast = _build_csr_fast(data, indices, indptr, (3, 2))
        ref = sp.csr_matrix((data, indices, indptr), shape=(3, 2))
        if (fast != ref).nnz != 0:
            return False
        probe = np.ones((2, 2), dtype=np.float32)
        if not np.array_equal(fast @ probe, ref @ probe):
            return False
        return bool(np.array_equal(fast[np.array([0, 2])].data, np.array([1.0, 2.0])))
    except Exception:  # pragma: no cover - version-dependent fallback
        return False


_FAST_CTOR = _fast_ctor_works()


def _make_csr(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: Tuple[int, int],
) -> sp.csr_matrix:
    if _FAST_CTOR:
        return _build_csr_fast(data, indices, indptr, shape)
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _copy_rows(
    m: sp.csr_matrix,
    idx: np.ndarray,
    lens: np.ndarray,
    out_indptr: np.ndarray,
    data: np.ndarray,
    indices: np.ndarray,
) -> None:
    """Copy the selected rows' (data, indices) segments into the buffers.

    Fills ``out_indptr`` as a side effect. Uses scipy's ``csr_row_index``
    per-row-memcpy kernel when available (≈4× faster than an element-wise
    position gather on large matrices); falls back to pure numpy otherwise.
    """
    out_indptr[0] = 0
    np.cumsum(lens, out=out_indptr[1:])
    if _HAVE_ROW_INDEX and m.indptr.dtype == m.indices.dtype:
        _sparsetools.csr_row_index(
            idx.size,
            idx.astype(m.indptr.dtype, copy=False),
            m.indptr,
            m.indices,
            m.data,
            indices,
            data,
        )
        return
    # Fallback: per-element source positions (row start + in-row offset).
    pos = np.repeat(m.indptr[idx].astype(np.int64) - out_indptr[:-1], lens)
    pos += np.arange(int(out_indptr[-1]), dtype=np.int64)
    m.data.take(pos, out=data)
    m.indices.take(pos, out=indices)


def slice_rows(matrix: sp.csr_matrix, start: int, stop: int) -> sp.csr_matrix:
    """``matrix[start:stop]`` as views of ``matrix``'s arrays (canonical in,
    canonical out); only the ``stop - start + 1`` row pointers are new."""
    indptr = matrix.indptr
    lo = indptr[start]
    hi = indptr[stop]
    return _make_csr(
        matrix.data[lo:hi], matrix.indices[lo:hi], indptr[start:stop + 1] - lo,
        (stop - start, matrix.shape[1]),
    )


class RowGatherer:
    """``matrix[idx]`` for one CSR matrix, its per-row nnz cached."""

    def __init__(self, matrix: sp.csr_matrix) -> None:
        self.matrix = matrix
        self.row_nnz = np.diff(matrix.indptr)

    def gather(self, idx: np.ndarray) -> sp.csr_matrix:
        """Gather ``matrix[idx]`` into fresh arrays (bit-for-bit equal)."""
        prof = _profile.active
        if prof is not None:
            t0 = perf_counter()
            out = self._gather(idx)
            prof.add("gather", perf_counter() - t0, units=idx.size)
            return out
        return self._gather(idx)

    def _gather(self, idx: np.ndarray) -> sp.csr_matrix:
        idx = np.asarray(idx, dtype=np.int64)
        m = self.matrix
        lens = self.row_nnz[idx]
        nnz = int(lens.sum())
        out_indptr = np.empty(idx.size + 1, dtype=m.indptr.dtype)
        data = np.empty(nnz, dtype=m.data.dtype)
        indices = np.empty(nnz, dtype=m.indices.dtype)
        _copy_rows(m, idx, lens, out_indptr, data, indices)
        return _make_csr(data, indices, out_indptr, (idx.size, m.shape[1]))


def spmm_into(X: sp.csr_matrix, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = X @ W``, bit-for-bit scipy's product; returns ``out``."""
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
    out[...] = X @ W
    return out


def spmm_t_into(X: sp.csr_matrix, delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = X.T @ delta`` with no ``(n_features, h)`` temporary,
    bit-for-bit scipy's product; returns ``out``."""
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
    out[...] = X.T @ delta
    return out
