"""Batch construction and dynamic batch dispensing.

Two consumers exist:

- Static trainers (synchronous SGD, Elastic SGD) partition an epoch into
  fixed-size batches up front — :func:`static_batches`.
- Adaptive SGD's *dynamic scheduler* requests a batch of a caller-chosen size
  whenever a GPU frees up — :class:`BatchCursor.next_batch(size)` — because
  per-GPU batch sizes change at every mega-batch boundary (Algorithm 1).

Both shuffle per epoch with a dedicated generator stream. Everything a batch
holds is a function of that stream alone, so the cursor gathers a *window*
of it once and every batch, its nnz and its loss targets are slices of the
window (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.data.dataset import SparseDataset
from repro.exceptions import ConfigurationError
from repro.perf.gather import CSR, RowGatherer, slice_rows
from repro.sparse.loss import label_targets
from repro.utils.rng import make_rng

__all__ = [
    "Batch", "BatchCursor", "ShuffledStream", "static_batches",
    "MegaBatchAccountant", "WINDOW_ROWS",
]

#: Rows a cursor gathers ahead. A constant, not an option: it bounds the
#: cursor's memory (one window plus one batch) whatever the dataset size, and
#: past a few thousand rows the per-batch share of a refill is already noise.
WINDOW_ROWS = 4096


@dataclass(eq=False)
class Batch:
    """A training batch: row-sliced features/labels plus provenance.

    ``nnz`` (non-zero feature count) is what the GPU cost model keys on —
    sparse kernels are sensitive to input cardinality (§I).
    """

    X: CSR
    Y: CSR
    indices: np.ndarray
    #: Sequence number of the batch within the run (dispatch order).
    sequence: int = -1
    #: Non-zero feature count (drives sparse-kernel cost); derived from X
    #: when the builder does not supply it.
    nnz: int = -1
    #: ``label_targets(Y)`` when the builder holds it; the loss derives it
    #: from ``Y`` through the same helper otherwise.
    targets: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.nnz < 0:
            self.nnz = int(self.X.nnz)

    @property
    def size(self) -> int:
        """Number of samples in the batch."""
        return self.X.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Batch(size={self.size}, nnz={self.nnz}, seq={self.sequence})"


class ShuffledStream:
    """Endless sample-index stream: one fresh permutation of ``range(n)``
    per epoch, all drawn from ``rng`` (which nothing else may use)."""

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self.n = n
        self._rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` indices (reshuffling at each epoch boundary)."""
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._pos == self.n:
                self._order = self._rng.permutation(self.n)
                self._pos = 0
            piece = self._order[self._pos:self._pos + count - filled]
            out[filled:filled + piece.size] = piece
            self._pos += piece.size
            filled += piece.size
        return out


class BatchCursor:
    """Shuffling cursor over a dataset that serves variable-size batches.

    The cursor walks a per-epoch random permutation of sample indices; when a
    request crosses the epoch boundary it reshuffles and continues, so batch
    sizes need not divide the dataset. ``epochs_completed`` exposes the
    *statistical-efficiency* x-axis (full passes over the data).
    """

    def __init__(self, dataset: SparseDataset, seed: int = 0) -> None:
        if dataset.n_samples == 0:
            raise ConfigurationError("cannot build a BatchCursor over an empty dataset")
        self.dataset = dataset
        self._stream = ShuffledStream(dataset.n_samples, make_rng(seed))
        #: Total samples / batches handed out so far.
        self.samples_served = 0
        self.batches_served = 0
        # A refill *replaces* the window's arrays, so batches still viewing
        # the old ones keep them alive and nothing aliases.
        self._gather_x = RowGatherer(dataset.X)
        self._gather_y = RowGatherer(dataset.Y)
        self._idx = np.empty(0, dtype=np.int64)  # the window's sample indices
        self._at = 0  # window rows already served

    @property
    def epochs_completed(self) -> float:
        """Fractional number of full passes over the training data."""
        return self.samples_served / self.dataset.n_samples

    def _refill(self, size: int) -> None:
        """Gather the next window: the unread tail, then fresh stream."""
        tail = self._idx[self._at:]
        idx = np.concatenate(
            [tail, self._stream.take(max(size, WINDOW_ROWS) - tail.size)]
        )
        X, Y = self._gather_x.gather(idx), self._gather_y.gather(idx)
        entries, t = label_targets(Y)  # raises on a row without labels
        self._X, self._Y, self._entries, self._t = X, Y, entries, t
        self._idx, self._at = idx, 0

    def next_batch(self, size: int) -> Batch:
        """Serve the next ``size`` samples as a batch (reshuffling as needed)."""
        size = int(size)
        if size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {size}")
        if self._idx.size - self._at < size:
            self._refill(size)
        a, b = self._at, self._at + size
        self._at = b
        X = slice_rows(self._X, a, b)
        y_ptr = self._Y.indptr
        lo, hi = y_ptr[a], y_ptr[b]
        batch = Batch(
            X=X,
            Y=slice_rows(self._Y, a, b),
            indices=self._idx[a:b],
            sequence=self.batches_served,
            nnz=int(X.indptr[-1]),
            targets=(self._entries[lo:hi] - a * self._Y.shape[1], self._t[lo:hi]),
        )
        self.batches_served += 1
        self.samples_served += size
        return batch


def static_batches(
    dataset: SparseDataset,
    batch_size: int,
    *,
    seed: int = 0,
    drop_last: bool = False,
) -> Iterator[Batch]:
    """One shuffled epoch of fixed-size batches (classic mini-batch SGD)."""
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    n = dataset.n_samples
    if n == 0:
        return
    cursor = BatchCursor(dataset, seed=seed)
    for start in range(0, n, batch_size):
        size = min(batch_size, n - start)
        if drop_last and size < batch_size:
            return
        yield cursor.next_batch(size)


class MegaBatchAccountant:
    """Tracks the sample budget of the current mega-batch.

    The paper controls dynamic scheduling "by fixing the number of training
    samples processed between two model merging stages — we call these
    samples a mega-batch" (§III). The accountant answers two questions the
    scheduler asks before each dispatch: *how many samples remain* in the
    current mega-batch, and *is the mega-batch done*.
    """

    def __init__(self, mega_batch_size: int) -> None:
        if mega_batch_size < 1:
            raise ConfigurationError(
                f"mega-batch size must be >= 1, got {mega_batch_size}"
            )
        self.mega_batch_size = int(mega_batch_size)
        self._consumed = 0
        self._completed = 0

    @property
    def consumed(self) -> int:
        """Samples dispatched within the current mega-batch."""
        return self._consumed

    @property
    def remaining(self) -> int:
        """Samples left in the current mega-batch's budget."""
        return self.mega_batch_size - self._consumed

    @property
    def mega_batches_completed(self) -> int:
        """Number of completed mega-batches (merge stages performed)."""
        return self._completed

    @property
    def exhausted(self) -> bool:
        """True when no budget remains and merging should run."""
        return self._consumed >= self.mega_batch_size

    def clamp(self, requested: int) -> int:
        """Largest batch size <= ``requested`` that fits the remaining budget."""
        return max(1, min(int(requested), self.remaining)) if self.remaining > 0 else 0

    def charge(self, n_samples: int) -> None:
        """Record ``n_samples`` as dispatched."""
        if n_samples < 1:
            raise ConfigurationError(f"cannot charge {n_samples} samples")
        if n_samples > self.remaining:
            raise ConfigurationError(
                f"dispatch of {n_samples} exceeds remaining mega-batch budget "
                f"({self.remaining})"
            )
        self._consumed += int(n_samples)

    def roll_over(self) -> None:
        """Start the next mega-batch (budget resets)."""
        if not self.exhausted:
            raise ConfigurationError(
                "roll_over() before the mega-batch budget was exhausted"
            )
        self._consumed = 0
        self._completed += 1
