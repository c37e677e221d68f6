"""SimHash locality-sensitive hashing over output-layer neurons.

SLIDE's core trick: instead of computing the softmax over the full (huge)
label space, hash the output-layer weight vectors into LSH tables and, for
each sample, retrieve only the labels whose weights have high inner product
with the hidden activation — those dominate the softmax anyway.

We implement **SimHash** (signed random projections): a label ``j`` with
weight column ``w_j ∈ R^h`` gets, in each of ``n_tables`` tables, a
``n_bits``-bit signature ``sign(R w_j)``. A query activation retrieves the
union of its buckets across tables. SimHash collision probability grows
with cosine similarity, so retrieved labels are the high-activation ones.

**Multi-probe**: a query may additionally probe the buckets reached by
flipping its least-confident signature bits (the projections closest to the
hyperplane — exactly the bits most likely to disagree with a near
neighbour). Probing ``P`` buckets per table buys the recall of ``~P×`` more
tables at the hashing cost of one, which is what lets the inference path
run few, highly selective tables (large ``n_bits``) without losing the
moderate-similarity candidates.

Tables are rebuilt periodically (weights drift during training); the
rebuild cost is charged to the simulated clock by the trainer. The index is
one flat sorted-array structure over all tables: the unique
``(table << n_bits) | code`` bucket keys in ascending order, bucket offsets
into one concatenated item array, and that item array. This module is the
only one that knows the key layout; :meth:`SimHashLSH.candidates` is the
only retrieval — SLIDE's active-label sampler and the serving scorer
(:mod:`repro.perf.lsh_topk`) both call it — and resolves every (query,
table, probe) bucket of a block with a single ``searchsorted``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.perf import profile as _profile
from repro.perf.lsh_topk import _segment_arange
from repro.utils.rng import RngFactory

__all__ = ["SimHashLSH"]


class SimHashLSH:
    """Signed-random-projection LSH index over the columns of a matrix."""

    def __init__(
        self,
        dim: int,
        *,
        n_tables: int = 8,
        n_bits: int = 9,
        seed: int = 0,
    ) -> None:
        if dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {dim}")
        if n_tables < 1:
            raise ConfigurationError(f"n_tables must be >= 1, got {n_tables}")
        if not (1 <= n_bits <= 30):
            raise ConfigurationError(f"n_bits must be in [1, 30], got {n_bits}")
        self.dim = dim
        self.n_tables = n_tables
        self.n_bits = n_bits
        rng = RngFactory(seed).get("simhash-projections")
        # (n_tables, n_bits, dim) Gaussian projections, fixed for the run.
        self._proj = rng.normal(size=(n_tables, n_bits, dim)).astype(np.float32)
        self._powers = (1 << np.arange(n_bits)).astype(np.int64)
        # table << n_bits per table: the high bits of a bucket key.
        self._table_bits = np.arange(n_tables, dtype=np.int64) << n_bits
        # The buckets of every table as three arrays: sorted unique
        # (table << n_bits) | code keys; bucket i holds
        # _bucket_items[_bucket_offsets[i]:_bucket_offsets[i + 1]].
        self._bucket_keys: Optional[np.ndarray] = None
        self._bucket_offsets: Optional[np.ndarray] = None
        self._bucket_items: Optional[np.ndarray] = None
        self._n_items = 0
        self.rebuilds = 0

    @property
    def is_built(self) -> bool:
        """Whether :meth:`rebuild` has populated the tables."""
        return self._bucket_keys is not None

    @property
    def n_items(self) -> int:
        """Number of indexed items (0 before the first rebuild)."""
        return self._n_items

    def max_probes(self) -> int:
        """Largest supported ``n_probes``: the base bucket + every 1-bit flip."""
        return self.n_bits + 1

    def _check_probes(self, n_probes: int) -> None:
        if not (1 <= n_probes <= self.max_probes()):
            raise ConfigurationError(
                f"n_probes must be in [1, {self.max_probes()}], got {n_probes}"
            )

    def probe_codes(self, vectors: np.ndarray, n_probes: int = 1) -> np.ndarray:
        """Bucket codes to probe for ``vectors`` — ``(n_tables, n_probes, n)``.

        Probe 0 is the query's own signature; probe ``p >= 1`` flips the
        signature bit whose projection has the ``p``-th smallest magnitude
        (the least confident bit — the standard multi-probe heuristic).
        """
        self._check_probes(n_probes)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ConfigurationError(
                f"query block must be (n, {self.dim}), got {vectors.shape}"
            )
        proj = np.einsum("tkd,nd->tkn", self._proj, vectors, optimize=True)
        bits = proj > 0.0
        codes = np.einsum("tkn,k->tn", bits.astype(np.int64), self._powers)
        if n_probes == 1:
            return codes[:, None, :]
        # Ascending |projection|: flip order = confidence order. Stable sort
        # keeps the flip sequence deterministic under exact margin ties.
        flip_order = np.argsort(np.abs(proj), axis=1, kind="stable")
        out = np.empty(
            (self.n_tables, n_probes, vectors.shape[0]), dtype=np.int64
        )
        out[:, 0, :] = codes
        flips = flip_order[:, : n_probes - 1, :]  # probe p flips bit p - 1
        out[:, 1:, :] = codes[:, None, :] ^ self._powers[flips]
        return out

    def rebuild(self, weights: np.ndarray) -> None:
        """(Re)index ``weights`` — shape ``(dim, n_items)``, column per item."""
        if weights.ndim != 2 or weights.shape[0] != self.dim:
            raise ConfigurationError(
                f"weights must be ({self.dim}, n_items), got {weights.shape}"
            )
        items = weights.shape[1]
        codes = self.probe_codes(np.ascontiguousarray(weights.T))[:, 0, :]
        keys = (codes | self._table_bits[:, None]).ravel()  # (T · items,)
        # One stable sort groups every table's buckets: the table index is
        # the key's high bits, and ties keep ascending item id.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
        self._bucket_keys = sorted_keys[starts]
        self._bucket_offsets = np.append(starts, keys.size)
        self._bucket_items = order % items
        self._n_items = items
        self.rebuilds += 1

    def candidates(
        self, H: np.ndarray, *, n_probes: int = 1
    ) -> Tuple[np.ndarray, np.ndarray]:
        """CSR candidate sets for a query block: ``(row_ptr, ids)``.

        ``row_ptr`` is ``(n + 1,)`` int64; row *i*'s candidates — the union
        of every bucket its ``n_probes`` probes hit across the tables — are
        ``ids[row_ptr[i]:row_ptr[i + 1]]``, sorted ascending and unique,
        deduplicated through a fresh ``(n, n_items)`` uint8 bitmap.
        """
        if self._bucket_keys is None:
            raise ConfigurationError("candidates() before rebuild()")
        prof = _profile.active
        n = H.shape[0]
        L = self._n_items
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        if n == 0 or L == 0:
            return row_ptr, np.empty(0, dtype=np.int64)

        # -- probe: hash the block, binary-search every bucket at once ----
        t0 = perf_counter() if prof is not None else 0.0
        codes = self.probe_codes(H, n_probes)  # (T, P, n)
        T, P, _ = codes.shape
        keys = codes | self._table_bits[:, None, None]
        # (n, T·P) so each query's probes are contiguous in the flat order.
        keys = np.ascontiguousarray(keys.transpose(2, 0, 1)).ravel()
        pos = np.searchsorted(self._bucket_keys, keys)
        pos = np.minimum(pos, self._bucket_keys.size - 1)
        hit = self._bucket_keys[pos] == keys
        starts = self._bucket_offsets[pos]
        counts = np.where(hit, self._bucket_offsets[pos + 1] - starts, 0)
        if prof is not None:
            prof.add("lsh_probe", perf_counter() - t0, units=n * T * P)

        # -- gather: flatten bucket members, dedup per row via bitmap -----
        t0 = perf_counter() if prof is not None else 0.0
        total = int(counts.sum())
        ids = np.empty(0, dtype=np.int64)
        if total:
            entry_items = self._bucket_items[
                np.repeat(starts, counts) + _segment_arange(counts)
            ]
            entry_rows = np.repeat(
                np.repeat(np.arange(n, dtype=np.int64), T * P), counts
            )
            flat_mask = np.zeros(n * L, dtype=np.uint8)
            flat_mask[entry_rows * L + entry_items] = 1
            nz = np.flatnonzero(flat_mask)  # ascending ⇒ (row, id) order
            ids = nz % L
            np.cumsum(np.bincount(nz // L, minlength=n), out=row_ptr[1:])
        if prof is not None:
            prof.add("lsh_gather", perf_counter() - t0, units=total)
        return row_ptr, ids
