"""Active-label selection for SLIDE's sampled softmax.

For each training sample the active set is the union of

1. the sample's **true labels** (always included — they anchor the loss),
2. the labels the **LSH index retrieves** for the hidden activation
   (high-inner-product "competitors" whose probabilities matter most), and
3. uniformly random **negative fill** up to ``min_active`` (keeps gradient
   estimates sane when the LSH buckets come back nearly empty).

The set is capped at ``max_active`` by uniformly subsampling the retrieved
portion (true labels are never dropped).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.baselines.slide.lsh import SimHashLSH
from repro.exceptions import ConfigurationError
from repro.utils.rng import RngFactory

__all__ = ["ActiveLabelSampler"]


class ActiveLabelSampler:
    """Builds per-sample active label sets."""

    def __init__(
        self,
        n_labels: int,
        lsh: SimHashLSH,
        *,
        min_active: int = 32,
        max_active: int = 256,
        seed: int = 0,
    ) -> None:
        if n_labels < 1:
            raise ConfigurationError(f"n_labels must be >= 1, got {n_labels}")
        if not (1 <= min_active <= max_active):
            raise ConfigurationError(
                f"need 1 <= min_active <= max_active, got "
                f"[{min_active}, {max_active}]"
            )
        self.n_labels = n_labels
        self.lsh = lsh
        self.min_active = min(min_active, n_labels)
        self.max_active = min(max_active, n_labels)
        self._rng = RngFactory(seed).get("active-sampler")

    def sample(self, hidden: np.ndarray, true_labels: np.ndarray) -> np.ndarray:
        """Active label ids for one sample — a one-row :meth:`sample_batch`."""
        return self.sample_batch(hidden[None, :], [true_labels])[0]

    def sample_batch(
        self, hidden: np.ndarray, label_sets: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Active sets (unique, true labels first) for a ``(n, dim)`` block.

        One :meth:`SimHashLSH.candidates` call retrieves for every row;
        subsampling and negative fill then consume the RNG in row order, so
        a block and its rows sampled one at a time give the same sets.
        """
        if hidden.ndim != 2 or hidden.shape[0] != len(label_sets):
            raise ConfigurationError(
                f"hidden block {hidden.shape} does not match "
                f"{len(label_sets)} label sets"
            )
        row_ptr, ids = self.lsh.candidates(hidden)
        out: List[np.ndarray] = []
        for i, labels in enumerate(label_sets):
            labels = np.asarray(labels, dtype=np.int64)
            if labels.size == 0:
                raise ConfigurationError(
                    "a sample must have at least one true label"
                )
            out.append(self._assemble(ids[row_ptr[i]:row_ptr[i + 1]], labels))
        return out

    def _assemble(
        self, retrieved: np.ndarray, true_labels: np.ndarray
    ) -> np.ndarray:
        """Cap/fill one retrieval into the final active set."""
        # Drop the true labels from the retrieved pool (kept separately).
        retrieved = retrieved[~np.isin(retrieved, true_labels)]

        budget = self.max_active - true_labels.size
        if budget < 0:
            # Degenerate: more true labels than the cap — keep them all.
            return np.unique(true_labels)
        if retrieved.size > budget:
            keep = self._rng.choice(retrieved.size, size=budget, replace=False)
            retrieved = retrieved[keep]

        active_count = true_labels.size + retrieved.size
        if active_count < self.min_active:
            # Negative fill: uniform labels outside the current set.
            need = self.min_active - active_count
            fill = self._rng.integers(0, self.n_labels, size=3 * need + 8)
            current = np.concatenate((true_labels, retrieved))
            fill = fill[~np.isin(fill, current)]
            fill = np.unique(fill)[:need]
            retrieved = np.concatenate((retrieved, fill))
        return np.concatenate((np.unique(true_labels), retrieved))
