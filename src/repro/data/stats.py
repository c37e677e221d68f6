"""Dataset statistics: Table-I rows and nnz-variance diagnostics.

Besides the Table I summary, this module quantifies the paper's second
heterogeneity source: "the number of non-zero features varies significantly
among the training samples ... the effect is variation in processing across
batches" (§I). :func:`batch_nnz_profile` measures exactly that variation for
a given batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.data.batching import static_batches
from repro.data.dataset import SparseDataset, XMLTask

__all__ = ["table1_row", "table1", "batch_nnz_profile", "BatchNnzProfile"]


def table1_row(task: XMLTask) -> Dict[str, object]:
    """One Table-I row (same columns as the paper) for ``task``."""
    return task.describe()


def table1(tasks: Sequence[XMLTask]) -> list:
    """Table-I rows for several tasks, in order."""
    return [table1_row(task) for task in tasks]


@dataclass(frozen=True)
class BatchNnzProfile:
    """Distribution of per-batch non-zero counts at a fixed batch size."""

    batch_size: int
    n_batches: int
    mean_nnz: float
    std_nnz: float
    min_nnz: int
    max_nnz: int

    @property
    def relative_spread(self) -> float:
        """(max - min) / mean — how unequal identically-sized batches are."""
        return (self.max_nnz - self.min_nnz) / self.mean_nnz if self.mean_nnz else 0.0


def batch_nnz_profile(
    dataset: SparseDataset, batch_size: int, *, seed: int = 0
) -> BatchNnzProfile:
    """Measure how batch nnz varies when ``dataset`` is cut into equal batches.

    Uses one shuffled epoch with ``drop_last`` so every batch has identical
    sample count — any nnz spread is purely the data's sparsity variance.
    """
    nnzs = np.array(
        [b.nnz for b in static_batches(dataset, batch_size, seed=seed, drop_last=True)],
        dtype=np.int64,
    )
    if nnzs.size == 0:
        raise ValueError(
            f"dataset of {dataset.n_samples} samples yields no full batches "
            f"of size {batch_size}"
        )
    return BatchNnzProfile(
        batch_size=batch_size,
        n_batches=int(nnzs.size),
        mean_nnz=float(nnzs.mean()),
        std_nnz=float(nnzs.std()),
        min_nnz=int(nnzs.min()),
        max_nnz=int(nnzs.max()),
    )
