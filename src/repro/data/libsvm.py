"""Multi-label libSVM format IO.

The paper stores training data "in the sparse libSVM format" (§V-A). The
Extreme Classification Repository uses the multi-label variant::

    <header: n_samples n_features n_labels>          (optional)
    l1,l2,...  f1:v1 f2:v2 ...

Each data line starts with a comma-separated label list followed by
whitespace-separated ``feature:value`` pairs. This module reads and writes
that format (with and without the XMLRepository header line), so genuine
repository files load unchanged and synthetic tasks can round-trip to disk.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, TextIO, Tuple, Union

import numpy as np

from repro.data.dataset import SparseDataset
from repro.exceptions import DataFormatError
from repro.perf.gather import csr_from_coo
from repro.utils.serialization import undecodable

__all__ = ["read_libsvm", "write_libsvm"]

PathLike = Union[str, Path]


def _parse_header(line: str) -> Optional[Tuple[int, int, int]]:
    parts = line.split()
    if len(parts) != 3:
        return None
    try:
        n, d, l = (int(p) for p in parts)
    except ValueError:
        return None
    if n < 0 or d <= 0 or l <= 0:
        return None
    return n, d, l


def _parse_line(
    line: str, lineno: int
) -> Tuple[List[int], List[int], List[float]]:
    parts = line.split()
    if not parts:
        return [], [], []
    # Label field: either "1,7,42" or absent when a line starts with "f:v".
    labels: List[int] = []
    start = 0
    if ":" not in parts[0]:
        try:
            labels = [int(tok) for tok in parts[0].split(",") if tok != ""]
        except ValueError as exc:
            raise DataFormatError(
                f"line {lineno}: malformed label list {parts[0]!r}"
            ) from exc
        start = 1
    cols: List[int] = []
    vals: List[float] = []
    for token in parts[start:]:
        feat, _, value = token.partition(":")
        if not _:
            raise DataFormatError(
                f"line {lineno}: malformed feature token {token!r}"
            )
        try:
            cols.append(int(feat))
            vals.append(float(value))
        except ValueError as exc:
            raise DataFormatError(
                f"line {lineno}: malformed feature token {token!r}"
            ) from exc
    return labels, cols, vals


def read_libsvm(
    path: PathLike,
    *,
    n_features: Optional[int] = None,
    n_labels: Optional[int] = None,
    zero_based: bool = True,
    name: Optional[str] = None,
) -> SparseDataset:
    """Read a multi-label libSVM file into a :class:`SparseDataset`.

    If the file begins with an XMLRepository header (``n d L``), dimensions
    come from it and a row count other than ``n`` (a truncated file) raises
    :class:`DataFormatError`; otherwise they are inferred (or taken from
    ``n_features`` / ``n_labels`` when provided). ``zero_based=False`` shifts
    ids down by one.
    """
    path = Path(path)
    rows_x: List[int] = []
    cols_x: List[int] = []
    vals_x: List[float] = []
    rows_y: List[int] = []
    cols_y: List[int] = []

    header: Optional[Tuple[int, int, int]] = None
    sample = 0
    try:
        with path.open(encoding="utf-8") as handle:
            first = handle.readline()
            header = _parse_header(first)
            if header is None and first.strip():
                _consume_line(first, 1, sample, rows_x, cols_x, vals_x, rows_y, cols_y)
                sample += 1
            for lineno, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                _consume_line(line, lineno, sample, rows_x, cols_x, vals_x, rows_y, cols_y)
                sample += 1
    except UnicodeDecodeError as exc:
        raise undecodable(path) from exc

    if header is not None and sample != header[0]:
        raise DataFormatError(
            f"{path}: header declares {header[0]} samples, file holds {sample}"
        )
    shift = 0 if zero_based else 1
    x_cols = np.asarray(cols_x, dtype=np.int64) - shift
    y_cols = np.asarray(cols_y, dtype=np.int64) - shift
    if (x_cols < 0).any() or (y_cols < 0).any():
        raise DataFormatError(
            f"{path}: negative feature/label id after zero_based={zero_based} shift"
        )

    if header is not None:
        _, d, l = header
    else:
        d = n_features if n_features is not None else (int(x_cols.max()) + 1 if len(x_cols) else 1)
        l = n_labels if n_labels is not None else (int(y_cols.max()) + 1 if len(y_cols) else 1)
    if n_features is not None:
        d = n_features
    if n_labels is not None:
        l = n_labels
    if len(x_cols) and int(x_cols.max()) >= d:
        raise DataFormatError(f"{path}: feature id {int(x_cols.max())} >= n_features {d}")
    if len(y_cols) and int(y_cols.max()) >= l:
        raise DataFormatError(f"{path}: label id {int(y_cols.max())} >= n_labels {l}")

    X = csr_from_coo(np.asarray(vals_x, dtype=np.float32), rows_x, x_cols, (sample, d))
    Y = csr_from_coo(np.ones(len(rows_y), dtype=np.float32), rows_y, y_cols, (sample, l))
    Y.data[:] = 1.0
    return SparseDataset(X=X, Y=Y, name=name or path.stem)


def _consume_line(line, lineno, sample, rows_x, cols_x, vals_x, rows_y, cols_y):
    labels, cols, vals = _parse_line(line, lineno)
    if not labels:
        raise DataFormatError(f"line {lineno}: sample has no labels")
    for lab in labels:
        rows_y.append(sample)
        cols_y.append(lab)
    for c, v in zip(cols, vals):
        rows_x.append(sample)
        cols_x.append(c)
        vals_x.append(v)


def write_libsvm(
    dataset: SparseDataset,
    path: PathLike,
    *,
    header: bool = True,
    precision: int = 6,
) -> Path:
    """Write ``dataset`` in multi-label libSVM format (zero-based ids).

    With ``header=True`` (default) the XMLRepository ``n d L`` header line is
    emitted, which makes dimensions unambiguous on read-back.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    X, Y = dataset.X, dataset.Y
    with path.open("w") as handle:
        if header:
            handle.write(f"{dataset.n_samples} {dataset.n_features} {dataset.n_labels}\n")
        for i in range(dataset.n_samples):
            labels = Y.indices[Y.indptr[i]:Y.indptr[i + 1]]
            feats = X.indices[X.indptr[i]:X.indptr[i + 1]]
            vals = X.data[X.indptr[i]:X.indptr[i + 1]]
            label_field = ",".join(str(int(lab)) for lab in labels)
            feat_field = " ".join(
                f"{int(f)}:{v:.{precision}g}" for f, v in zip(feats, vals)
            )
            handle.write(f"{label_field} {feat_field}\n".rstrip() + "\n")
    return path
