"""Top-k label scoring for serving: exact dense path + LSH sparse path.

The exact path runs the snapshot's :class:`~repro.sparse.mlp.SparseMLP`
forward (the same kernels as training) and ranks all ``L`` labels with the
deterministic :func:`~repro.sparse.metrics.topk_indices`, straight off each
chunk's logits.

The LSH path is SLIDE turned inference-side: the output layer's weight
columns are indexed in SimHash tables, a query's last hidden activation
retrieves only the labels whose weights collide with it, and logits are
computed for those candidate columns alone — O(h · |candidates|) instead
of O(h · L) per query. Retrieval is :meth:`SimHashLSH.candidates
<repro.baselines.slide.lsh.SimHashLSH.candidates>`, the same call SLIDE
training samples through; scoring and ranking are
:func:`repro.perf.lsh_topk.lsh_topk`, whose module docstring has the
pipeline and :meth:`Predictor.lsh_stats` the padding rule.

Every LSH call also records the batch's mean candidate fraction
(:meth:`observed_candidate_fraction`) — the selectivity signal the
``auto`` serving mode feeds into
:meth:`~repro.gpu.cost.GpuCostModel.lsh_inference_time` to pick exact vs
LSH per batch. :meth:`Predictor.recall_at_k` reports how much of the
exact top-k the accelerated path keeps — the accuracy/latency dial the
serving bench sweeps.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.baselines.slide.lsh import SimHashLSH
from repro.exceptions import ConfigurationError, ServeError
from repro.gpu.cost import StepWorkload
from repro.perf.gather import CSR, as_csr
from repro.perf.lsh_topk import lsh_topk
from repro.serve.snapshot import ModelSnapshot
from repro.sparse.metrics import topk_indices
from repro.sparse.mlp import SparseMLP

__all__ = ["Predictor"]


class Predictor:
    """Scores sparse queries against one model snapshot."""

    def __init__(
        self,
        snapshot: ModelSnapshot,
        *,
        lsh_tables: int = 24,
        lsh_bits: int = 4,
        lsh_seed: int = 0,
        lsh_probes: int = 1,
        chunk: int = 2048,
    ) -> None:
        self.snapshot = snapshot
        self.arch = snapshot.arch
        self.state = snapshot.state
        self.mlp = SparseMLP(self.arch)
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
        self.chunk = int(chunk)
        #: The cost model's view of the network (prices a batch).
        self.layer_dims = tuple(self.arch.layer_dims)
        self._n_layers = len(self.layer_dims) - 1
        self._out_name = f"W{self._n_layers}"
        self._bias_name = f"b{self._n_layers}"
        # LSH over the *output-layer* weight columns: one column per label,
        # dim = the last hidden width (what the query activation lives in).
        self._lsh = SimHashLSH(
            dim=self.arch.layer_dims[-2],
            n_tables=lsh_tables,
            n_bits=lsh_bits,
            seed=lsh_seed,
        )
        self.lsh_seed = int(lsh_seed)
        if not (1 <= lsh_probes <= self._lsh.max_probes()):
            raise ConfigurationError(
                f"lsh_probes must be in [1, {self._lsh.max_probes()}], "
                f"got {lsh_probes}"
            )
        self.lsh_probes = int(lsh_probes)
        # Row-major transpose of the output weights — the gather stream of
        # the batched candidate scorer; rebuilt with the tables.
        self._W_out_T: Optional[np.ndarray] = None
        # EWMA of observed per-batch candidate fractions (auto-mode signal).
        self._frac_ewma: Optional[float] = None

    # -- plumbing ------------------------------------------------------------
    def check_query(self, X: CSR) -> None:
        """Raise ``ConfigurationError`` unless ``X`` is sparse (a
        :class:`~repro.perf.gather.CSR` or duck-typed), model-wide."""
        if as_csr(X) is None:
            raise ConfigurationError(
                f"queries must be a sparse matrix, got {type(X)!r}"
            )
        if X.shape[1] != self.arch.n_features:
            raise ConfigurationError(
                f"queries have {X.shape[1]} features, model expects "
                f"{self.arch.n_features}"
            )

    def rebuild_lsh(self) -> None:
        """(Re)index the output layer (call after swapping in new weights)."""
        self._lsh.rebuild(self.state[self._out_name])
        self._W_out_T = np.ascontiguousarray(self.state[self._out_name].T)

    def spawn(self, snapshot: ModelSnapshot) -> "Predictor":
        """A predictor for ``snapshot`` inheriting this one's configuration.

        The hot-swap constructor: same LSH geometry (tables/bits/probes/
        seed) and chunk size. The candidate-fraction EWMA carries over too,
        so ``auto`` scoring's crossover pricing stays continuous across a
        swap instead of re-calibrating from scratch. The new predictor's LSH
        tables are NOT built here — warming is the engine's job, off the
        dispatch path.
        """
        if snapshot.arch.layer_dims != self.arch.layer_dims:
            raise ServeError(
                f"cannot swap to a snapshot with layer dims "
                f"{snapshot.arch.layer_dims} on an engine built for "
                f"{self.arch.layer_dims}"
            )
        clone = Predictor(
            snapshot,
            lsh_tables=self._lsh.n_tables,
            lsh_bits=self._lsh.n_bits,
            lsh_seed=self.lsh_seed,
            lsh_probes=self.lsh_probes,
            chunk=self.chunk,
        )
        clone._frac_ewma = self._frac_ewma
        return clone

    def workload(self, X: CSR) -> StepWorkload:
        """The cost-model descriptor of scoring ``X`` (prices a batch)."""
        return StepWorkload(
            batch_size=X.shape[0],
            batch_nnz=int(X.nnz),
            layer_dims=self.layer_dims,
        )

    @property
    def lsh_tables(self) -> int:
        """Number of SimHash tables in the candidate index."""
        return self._lsh.n_tables

    @property
    def lsh_bits(self) -> int:
        """Signature bits per table in the candidate index."""
        return self._lsh.n_bits

    # -- exact path ----------------------------------------------------------
    def score(self, X: CSR) -> np.ndarray:
        """Dense ``(n, L)`` logits, computed ``chunk`` rows at a time."""
        self.check_query(X)
        return self.mlp.predict_batched(X, self.state, chunk=self.chunk)

    def topk(self, X: CSR, k: int) -> np.ndarray:
        """Exact top-``k`` label ids per query, best-first, tie-stable:
        ``topk_indices(self.score(X), k)``, ranked ``chunk`` rows at a time
        off each chunk's logits instead of an ``(n, L)`` copy."""
        self.check_query(X)
        predict, state = self.mlp.predict, self.state
        if X.shape[0] <= self.chunk:  # one chunk is X: no CSR slice copy
            return topk_indices(predict(X, state), k)
        return np.concatenate([
            topk_indices(predict(X[s:s + self.chunk], state), k)
            for s in range(0, X.shape[0], self.chunk)
        ])

    # -- LSH-accelerated path -------------------------------------------------
    def hidden(self, X: CSR) -> np.ndarray:
        """Last hidden activation (the LSH query vectors) for ``X``."""
        if self._n_layers < 2:
            raise ServeError(
                "the LSH path needs at least one hidden layer"
            )
        self.check_query(X)
        # Truncated forward: stop at the last hidden layer — running the
        # (n, L) output GEMM here would pay the exact path's dominant cost
        # just to compute the vectors that let us skip it.
        cache = self.mlp.forward(X, self.state, upto=self._n_layers - 1)
        return cache.activations[-1]

    def topk_lsh(self, X: CSR, k: int) -> np.ndarray:
        """Top-``k`` via the batched LSH pipeline (see :meth:`lsh_stats`)."""
        return self.lsh_stats(X, k)[0]

    def lsh_stats(
        self, X: CSR, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(topk_ids, candidate_counts)`` from ONE forward + probe.

        Each row ranks only its retrieved candidates; rows with fewer than
        ``k`` candidates are padded with the lowest unretrieved label ids
        (scored last), keeping the result rectangular and deterministic.
        The counts are the per-row candidate-set sizes from the same probe
        — callers that need both (the serving bench, the crossover
        calibration) pay for a single hidden forward and retrieval.
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if not self._lsh.is_built:
            self.rebuild_lsh()
        L = self.arch.n_labels
        k = min(k, L)
        out, counts = lsh_topk(
            self._lsh,
            self.hidden(X),
            self._W_out_T,
            self.state[self._bias_name],
            k,
            n_probes=self.lsh_probes,
        )
        self._observe_fraction(counts, L)
        return out, counts

    def candidate_counts(self, X: CSR) -> np.ndarray:
        """Per-row LSH candidate-set sizes (retrieval selectivity).

        One forward + one vectorized probe — no scoring, no per-row loop.
        """
        if not self._lsh.is_built:
            self.rebuild_lsh()
        indptr, _ = self._lsh.candidates(
            self.hidden(X), n_probes=self.lsh_probes
        )
        counts = np.diff(indptr)
        self._observe_fraction(counts, self.arch.n_labels)
        return counts

    # -- crossover signal -----------------------------------------------------
    def _observe_fraction(self, counts: np.ndarray, L: int) -> None:
        if counts.size == 0 or L == 0:
            return
        frac = float(counts.mean()) / L
        if self._frac_ewma is None:
            self._frac_ewma = frac
        else:
            self._frac_ewma = 0.5 * self._frac_ewma + 0.5 * frac

    def observed_candidate_fraction(self) -> Optional[float]:
        """EWMA of mean candidate fraction over past LSH probes (or None).

        This is what the serving engine's ``auto`` mode feeds into the cost
        model's :meth:`~repro.gpu.cost.GpuCostModel.lsh_inference_time`.
        """
        return self._frac_ewma

    def calibrate_candidate_fraction(
        self, X: CSR, *, max_rows: int = 64
    ) -> float:
        """Probe up to ``max_rows`` queries to seed the fraction estimate.

        Deterministic (first rows of ``X``), cheap (retrieval only, no
        scoring), and idempotent with the per-batch EWMA updates.
        """
        self.candidate_counts(X[: max(1, max_rows)])
        assert self._frac_ewma is not None
        return self._frac_ewma

    # -- recall reporting -----------------------------------------------------
    def recall_at_k(self, X: CSR, k: int) -> float:
        """Mean |LSH top-k ∩ exact top-k| / k over the query block."""
        if X.shape[0] == 0:
            return 1.0
        exact = self.topk(X, k)
        approx = self.topk_lsh(X, k)
        # One flat membership test, no per-row intersect1d loop: label ids
        # live in [0, L), so row·L + id is unique per (row, id).
        offsets = np.arange(X.shape[0])[:, None] * self.arch.n_labels
        hits = np.isin(approx + offsets, exact + offsets).sum()
        return int(hits) / exact.size
