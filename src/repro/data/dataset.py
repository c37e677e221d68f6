"""Sparse multi-label dataset containers.

The paper trains on extreme multi-label classification (XML) data: each
sample has a highly sparse feature vector and a small set of relevant labels
out of an extremely large label space. We represent one split as CSR feature
and label matrices (:class:`SparseDataset`) and a full task as a train/test
pair (:class:`XMLTask`). Everything downstream — batching, the sparse MLP,
the metrics — consumes these containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import DataFormatError
from repro.perf.gather import CSR, as_csr, canonicalize

__all__ = ["SparseDataset", "XMLTask"]


def _as_csr(matrix, name: str) -> CSR:
    """``matrix`` (a :class:`CSR`, or duck-typed: a scipy matrix) as a
    canonical float32 CSR; its arrays are shared when already so."""
    csr = as_csr(matrix)
    if csr is None:
        raise DataFormatError(f"{name} must be a sparse matrix, got {type(matrix)!r}")
    data = csr.data.astype(np.float32, copy=False)
    return canonicalize(CSR(data, csr.indices, csr.indptr, csr.shape))


@dataclass
class SparseDataset:
    """One split of a sparse multi-label dataset.

    Attributes
    ----------
    X:
        ``(n_samples, n_features)`` CSR float32 feature matrix.
    Y:
        ``(n_samples, n_labels)`` CSR float32 binary label-indicator matrix.
        Every sample must have at least one label (XML convention; samples
        without labels cannot contribute to the loss).
    name:
        Human-readable split identifier used in logs and reports.
    """

    X: CSR
    Y: CSR
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.X = _as_csr(self.X, "X")
        self.Y = _as_csr(self.Y, "Y")
        if self.X.shape[0] != self.Y.shape[0]:
            raise DataFormatError(
                f"{self.name}: X has {self.X.shape[0]} samples but Y has "
                f"{self.Y.shape[0]}"
            )
        labels_per_sample = np.diff(self.Y.indptr)
        if self.X.shape[0] and labels_per_sample.min() == 0:
            bad = int(np.argmin(labels_per_sample))
            raise DataFormatError(
                f"{self.name}: sample {bad} has no labels; every XML sample "
                "must carry at least one label"
            )
        if self.Y.nnz and (self.Y.data != 1.0).any():
            raise DataFormatError(
                f"{self.name}: Y must be a binary indicator matrix"
            )
        # Per-row non-zero counts, cached once.
        self._row_nnz_x = np.diff(self.X.indptr)
        self._row_nnz_y = labels_per_sample

    # -- basic shape info ---------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of samples in the split."""
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        """Dimensionality of the (sparse) feature space."""
        return self.X.shape[1]

    @property
    def n_labels(self) -> int:
        """Size of the label space."""
        return self.Y.shape[1]

    def __len__(self) -> int:
        return self.n_samples

    # -- sparsity descriptors -------------------------------------------------
    @property
    def avg_features_per_sample(self) -> float:
        """Mean non-zero features per sample (Table I column)."""
        if self.n_samples == 0:
            return 0.0
        return self.X.nnz / self.n_samples

    @property
    def avg_labels_per_sample(self) -> float:
        """Mean labels per sample (Table I column)."""
        if self.n_samples == 0:
            return 0.0
        return self.Y.nnz / self.n_samples

    def labels_per_sample(self) -> np.ndarray:
        """Per-sample label counts."""
        return self._row_nnz_y

    # -- subsetting --------------------------------------------------------
    def take(self, indices: Sequence[int], name: Optional[str] = None) -> "SparseDataset":
        """Row-subset the split (copying only the selected rows)."""
        idx = np.asarray(indices, dtype=np.int64)
        return SparseDataset(
            X=self.X[idx], Y=self.Y[idx], name=name or f"{self.name}[subset]"
        )

    def label_sets(self) -> list:
        """Per-sample label-id arrays (views into Y's index array)."""
        indptr, indices = self.Y.indptr, self.Y.indices
        return [indices[indptr[i]:indptr[i + 1]] for i in range(self.n_samples)]


@dataclass
class XMLTask:
    """A full XML classification task: train and test splits plus metadata.

    Mirrors one row of the paper's Table I. ``describe()`` produces exactly
    those columns.
    """

    train: SparseDataset
    test: SparseDataset
    name: str = "xml-task"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.train.n_features != self.test.n_features:
            raise DataFormatError(
                f"{self.name}: train/test feature dims differ "
                f"({self.train.n_features} vs {self.test.n_features})"
            )
        if self.train.n_labels != self.test.n_labels:
            raise DataFormatError(
                f"{self.name}: train/test label dims differ "
                f"({self.train.n_labels} vs {self.test.n_labels})"
            )

    @property
    def n_features(self) -> int:
        """Shared feature dimensionality."""
        return self.train.n_features

    @property
    def n_labels(self) -> int:
        """Shared label-space size."""
        return self.train.n_labels

    def describe(self) -> dict:
        """Table-I-style summary row for this task."""
        return {
            "dataset": self.name,
            "features": self.n_features,
            "classes": self.n_labels,
            "training samples": self.train.n_samples,
            "testing samples": self.test.n_samples,
            "avg features per sample": round(self.train.avg_features_per_sample, 1),
            "avg classes per sample": round(self.train.avg_labels_per_sample, 1),
        }
