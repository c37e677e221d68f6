"""The one sparse type, :class:`CSR`, and scipy's compiled kernels on it.

The kernels are scipy's ``_sparsetools`` routines, loaded by file path
from scipy's install directory without importing ``scipy.sparse`` (about
15 MiB of every ``train`` / ``serve`` / ``trace`` process; DESIGN.md §6,
§15). Without the compiled file this module raises ``ImportError``: there
is no fallback. Each operation calls the routine scipy's own operator
calls on the same arrays, so each result is byte-identical to scipy's
(``tests/test_sparse_csr.py``): :func:`csr_from_coo` is ``csr_matrix((data,
(rows, cols)), shape)``, :func:`canonicalize` ``sum_duplicates``,
:class:`RowGatherer` and ``X[idx]`` fancy indexing into fresh arrays (no
pool: reuse measured within 3% of ``np.empty``), :func:`slice_rows` and
``X[a:b]`` zero-copy slices, :func:`spmm_into` ``X @ W`` and
:func:`spmm_t_into` ``X.T @ delta`` (``csc_matvecs`` on the CSR arrays
read as their CSC transpose), each written into an ``out`` the caller
passes, without scipy's operator dispatch (24% of ``train-micro``).
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, PathFinder
from importlib.util import module_from_spec, spec_from_file_location
from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from repro.perf import profile as _profile

__all__ = [
    "CSR", "as_csr", "canonicalize", "csr_from_coo", "slice_rows",
    "RowGatherer", "spmm_into", "spmm_t_into",
]

_KERNELS = "scipy.sparse._sparsetools"


def load_sparsetools(scipy_dir: Optional[str]):
    """scipy's compiled ``_sparsetools``, executed from its file under
    ``scipy_dir`` without running ``scipy/sparse/__init__.py``."""
    if _KERNELS in sys.modules:  # scipy.sparse itself is loaded
        return sys.modules[_KERNELS]
    for suffix in EXTENSION_SUFFIXES if scipy_dir else ():
        path = os.path.join(scipy_dir, "sparse", "_sparsetools" + suffix)
        if os.path.isfile(path):
            spec = spec_from_file_location(_KERNELS, path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError("repro needs scipy's compiled sparse kernels: no "
                      f"_sparsetools extension in {scipy_dir or 'any scipy'}")


_scipy = PathFinder.find_spec("scipy")
_st = load_sparsetools(_scipy.submodule_search_locations[0] if _scipy else None)


class CSR:
    """Row ``i`` holds columns ``indices[indptr[i]:indptr[i + 1]]`` with
    values ``data[...]``; built by :func:`csr_from_coo` or taken in through
    :func:`canonicalize`, each row's columns ascend strictly, and so do a
    slice's or gather's. A kernel-only operand (the SLIDE kernel's
    active-entry pattern) need not be canonical."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape: Tuple[int, int]) -> None:
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __getitem__(self, rows) -> "CSR":
        """``X[a:b]`` as a zero-copy slice, ``X[idx]`` as a fresh gather."""
        n = self.shape[0]
        if isinstance(rows, slice):
            start, stop, step = rows.indices(n)
            if step != 1:
                raise IndexError("a CSR row slice takes no step")
            return slice_rows(self, start, max(start, stop))
        idx = np.asarray(rows)
        if idx.dtype == bool or idx.ndim != 1 or (
                idx.size and not 0 <= idx.min() <= idx.max() < n):
            raise IndexError(f"rows must be a 1-d array of ids in [0, {n})")
        idx = idx.astype(np.int64)
        return _gather(self, idx, self.indptr[idx + 1] - self.indptr[idx])


def as_csr(matrix) -> Optional[CSR]:
    """``matrix`` as a :class:`CSR` over its own arrays, or ``None``: duck
    typed (``tocsr()``, or the CSR arrays and a shape), so a scipy matrix
    is taken in without importing scipy."""
    if isinstance(matrix, CSR):
        return matrix
    if hasattr(matrix, "tocsr"):
        matrix = matrix.tocsr()
    try:
        n, f = matrix.shape
        return CSR(matrix.data, matrix.indices, matrix.indptr, (int(n), int(f)))
    except (AttributeError, TypeError, ValueError):
        return None


def canonicalize(m: CSR) -> CSR:
    """``m`` with each row's columns sorted and duplicates summed, as
    scipy's ``sum_duplicates``: ``m`` itself when already canonical, else a
    copy put through the same two routines under the same conditions."""
    n = m.shape[0]
    if _st.csr_has_canonical_format(n, m.indptr, m.indices):
        return m
    data, indices, indptr = m.data.copy(), m.indices.copy(), m.indptr.copy()
    if not _st.csr_has_sorted_indices(n, indptr, indices):
        _st.csr_sort_indices(n, indptr, indices, data)
    _st.csr_sum_duplicates(n, m.shape[1], indptr, indices, data)
    return CSR(data[:indptr[-1]], indices[:indptr[-1]], indptr, m.shape)


def csr_from_coo(data, rows, cols, shape: Tuple[int, int]) -> CSR:
    """scipy's ``csr_matrix((data, (rows, cols)), shape=shape)``, bit for
    bit: the canonical CSR of COO triplets, duplicates summed."""
    n, f = shape
    data, rows, cols = np.asarray(data), np.asarray(rows), np.asarray(cols)
    if not rows.size == cols.size == data.size or rows.size and not (
            0 <= rows.min() <= rows.max() < n and 0 <= cols.min() <= cols.max() < f):
        raise ValueError(f"COO triplets must be aligned and inside {shape}")
    index = np.int32 if max(n, f, data.size) < 2**31 else np.int64
    indptr = np.empty(n + 1, dtype=index)
    indices = np.empty(data.size, dtype=index)
    out = np.empty_like(data)
    _st.coo_tocsr(n, f, data.size, rows.astype(index), cols.astype(index),
                  data, indptr, indices, out)
    return canonicalize(CSR(out, indices, indptr, (n, f)))


def _gather(m: CSR, idx: np.ndarray, lens: np.ndarray) -> CSR:
    """Rows ``idx`` of ``m`` (``lens`` their nnz) into fresh arrays."""
    indptr = np.empty(idx.size + 1, dtype=m.indptr.dtype)
    indptr[0] = 0
    np.cumsum(lens, out=indptr[1:])
    data = np.empty(indptr[-1], dtype=m.data.dtype)
    indices = np.empty(indptr[-1], dtype=m.indices.dtype)
    _st.csr_row_index(idx.size, idx.astype(m.indptr.dtype, copy=False),
                      m.indptr, m.indices, m.data, indices, data)
    return CSR(data, indices, indptr, (idx.size, m.shape[1]))


def slice_rows(matrix: CSR, start: int, stop: int) -> CSR:
    """``matrix[start:stop]`` as views of ``matrix``'s arrays (canonical in,
    canonical out); only the ``stop - start + 1`` row pointers are new."""
    indptr = matrix.indptr
    lo = indptr[start]
    hi = indptr[stop]
    return CSR(
        matrix.data[lo:hi], matrix.indices[lo:hi], indptr[start:stop + 1] - lo,
        (stop - start, matrix.shape[1]),
    )


class RowGatherer:
    """``matrix[idx]`` for one CSR matrix, its per-row nnz cached."""

    def __init__(self, matrix: CSR) -> None:
        self.matrix = matrix
        self.row_nnz = np.diff(matrix.indptr)

    def gather(self, idx: np.ndarray) -> CSR:
        """Gather ``matrix[idx]`` into fresh arrays (bit-for-bit equal)."""
        prof = _profile.active
        if prof is not None:
            t0 = perf_counter()
            out = self._gather(idx)
            prof.add("gather", perf_counter() - t0, units=idx.size)
            return out
        return self._gather(idx)

    def _gather(self, idx: np.ndarray) -> CSR:
        idx = np.asarray(idx, dtype=np.int64)
        return _gather(self.matrix, idx, self.row_nnz[idx])


def spmm_into(X: CSR, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = X @ W``, bit-for-bit scipy's product; returns ``out``."""
    prof = _profile.active
    if prof is not None:
        t0 = perf_counter()
        _spmm_into(X, W, out)
        prof.add("spmm", perf_counter() - t0, units=X.nnz)
        return out
    return _spmm_into(X, W, out)


def _spmm_into(X: CSR, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    out[...] = 0.0
    n, f = X.shape
    _st.csr_matvecs(n, f, W.shape[1], X.indptr, X.indices, X.data,
                    W.ravel(), _flat(out))
    return out


def spmm_t_into(X: CSR, delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = X.T @ delta`` with no ``(n_features, h)`` temporary,
    bit-for-bit scipy's product; returns ``out``."""
    prof = _profile.active
    if prof is not None:
        t0 = perf_counter()
        _spmm_t_into(X, delta, out)
        prof.add("spmm_t", perf_counter() - t0, units=X.nnz)
        return out
    return _spmm_t_into(X, delta, out)


def _spmm_t_into(X: CSR, delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    out[...] = 0.0
    n, f = X.shape
    _st.csc_matvecs(f, n, delta.shape[1], X.indptr, X.indices, X.data,
                    delta.ravel(), _flat(out))
    return out


def _flat(out: np.ndarray) -> np.ndarray:
    """``out`` as the 1-d view a kernel writes through, never a copy."""
    if not out.flags.c_contiguous:
        raise ValueError("a sparse product writes into a C-contiguous out")
    return out.reshape(-1)
