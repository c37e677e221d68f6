"""Algorithm 2 — Normalized Model Merging.

At each mega-batch boundary the global model is rebuilt from the replicas:

1. **Normalization weights** (lines 1-3): if every GPU performed the same
   number of updates, weight replicas by batch size — larger batches give
   more accurate gradients; otherwise weight by update count — replicas that
   advanced further carry more signal (warmup-like wide exploration).
2. **Perturbation** (lines 4-7): when *all* replicas are well-regularized
   (L2-norm per parameter below ``pert_thr``), boost the most-updated
   replica's weight by ``(1+δ)`` and damp the least-updated by ``(1−δ)``.
   This deliberately denormalizes the weights; the regularization gate
   bounds the resulting amplification.
3. **Momentum update** (lines 8-9): ``w' = Σ αᵢ wᵢ + γ (w − w_p)``; the
   previous global model enters through the momentum difference term.

Tie-breaking (not specified by the pseudocode): ``argmax``/``argmin`` take
the first maximal and the *last* minimal index, so when several replicas tie
the perturbation never boosts and damps the same replica (which would apply
a spurious ``(1−δ²)`` shrink); with equal weights the +δ/−δ pair then keeps
the weight sum exactly 1. With a single GPU there is no pair to perturb and
the step is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ModelStateError
from repro.sparse.model_state import ModelState, weighted_average

__all__ = ["MergeWeights", "compute_merge_weights", "merge_models"]


@dataclass(frozen=True)
class MergeWeights:
    """Normalized (and possibly perturbed) per-replica weights."""

    alphas: Tuple[float, ...]
    #: Which normalization branch ran: "batch_size" (equal updates) or "updates".
    branch: str
    #: Whether the perturbation step fired (Figure 6b's quantity).
    perturbed: bool
    #: Index whose weight was boosted (None when not perturbed).
    boosted: Optional[int] = None
    #: Index whose weight was damped (None when not perturbed).
    damped: Optional[int] = None


def compute_merge_weights(
    batch_sizes: Sequence[int],
    updates: Sequence[int],
    replica_l2_per_param: Sequence[float],
    *,
    pert_thr: float,
    delta: float,
    enable_perturbation: bool = True,
    weighting: str = "paper",
    renormalize: bool = False,
) -> MergeWeights:
    """Lines 1-7 of Algorithm 2: normalization weights plus perturbation.

    ``weighting`` selects the normalization rule: ``"paper"`` is the
    pseudocode (updates, falling back to batch sizes on ties);
    ``"updates_times_batch"`` is the §III-B late-stage alternative
    (``αᵢ ∝ uᵢ · bᵢ``); ``"uniform"`` gives plain elastic averaging and
    exists for ablations.

    ``renormalize`` controls what happens after the perturbation step.
    ``False`` is the paper-literal pseudocode: the weights are left
    denormalized (``Σα = 1 + δ(α_r − α_s)``), with the regularization gate
    meant "to restrict the eventual impact of denormalization". At this
    reproduction's scaled-down model dimensionality the literal gate
    (L2-norm/params < ``pert_thr``) essentially never closes, so the ~0.5%
    per-merge inflation compounds across a run's many merges and measurably
    degrades late accuracy (see the perturbation ablation bench).
    ``renormalize=True`` rescales the perturbed weights back to sum 1 —
    preserving the intended *relative* boost of the most-updated replica
    while bounding exactly the effect the gate was designed to bound.
    """
    n = len(batch_sizes)
    if n == 0:
        raise ConfigurationError("merging requires at least one replica")
    if not (len(updates) == len(replica_l2_per_param) == n):
        raise ConfigurationError(
            f"length mismatch: {n} batch sizes, {len(updates)} updates, "
            f"{len(replica_l2_per_param)} norms"
        )
    b = np.asarray(batch_sizes, dtype=np.float64)
    u = np.asarray(updates, dtype=np.float64)
    if (b <= 0).any():
        raise ConfigurationError(f"batch sizes must be positive: {batch_sizes}")
    if (u < 0).any():
        raise ConfigurationError(f"update counts must be >= 0: {updates}")

    equal_updates = bool(np.all(u == u[0]))
    if weighting == "uniform":
        alphas = np.full(n, 1.0 / n)
        branch = "uniform"
    elif weighting == "updates_times_batch":
        prod = u * b
        total = prod.sum()
        alphas = prod / total if total > 0 else np.full(n, 1.0 / n)
        branch = "updates_times_batch"
    elif weighting == "paper":
        if equal_updates:
            alphas = b / b.sum()                      # line 2
            branch = "batch_size"
        else:
            alphas = u / u.sum()                      # line 3
            branch = "updates"
    else:
        raise ConfigurationError(f"unknown weighting {weighting!r}")

    perturbed = False
    boosted = damped = None
    norms = np.asarray(replica_l2_per_param, dtype=np.float64)
    if (
        enable_perturbation
        and n >= 2
        and bool(np.all(norms < pert_thr))           # line 4 gate
    ):
        r = int(np.argmax(u))                        # first maximal index
        s = int(n - 1 - np.argmin(u[::-1]))          # last minimal index
        if r != s:
            alphas = alphas.copy()
            alphas[r] *= 1.0 + delta                 # line 6
            alphas[s] *= 1.0 - delta
            if renormalize:
                alphas /= alphas.sum()
            perturbed = True
            boosted, damped = r, s
    return MergeWeights(
        alphas=tuple(float(a) for a in alphas),
        branch=branch,
        perturbed=perturbed,
        boosted=boosted,
        damped=damped,
    )


def merge_models(
    replicas: Sequence[ModelState],
    weights: MergeWeights,
    global_model: ModelState,
    prev_global: ModelState,
    *,
    gamma: float,
    reduced: Optional[ModelState] = None,
) -> None:
    """Lines 8-9 of Algorithm 2: the momentum-smoothed global update.

    ``w' ← Σ αᵢ wᵢ + γ (w − w_p)``, then ``w_p ← w`` and ``w ← w'`` — both
    performed in place on the passed states. ``reduced`` optionally supplies
    a precomputed ``Σ αᵢ wᵢ`` (e.g. from the simulated all-reduce) so the
    weighted average is not recomputed.
    """
    if not replicas:
        raise ConfigurationError("merge_models requires at least one replica")
    if len(replicas) != len(weights.alphas):
        raise ModelStateError(
            f"{len(replicas)} replicas but {len(weights.alphas)} weights"
        )
    if not (0.0 <= gamma < 1.0):
        raise ConfigurationError(f"gamma must be in [0, 1), got {gamma}")
    merged = (
        reduced
        if reduced is not None
        else weighted_average(replicas, weights.alphas)
    )

    # w' = merged + gamma * (w - w_p), computed without extra temporaries:
    new_vector = merged.vector.copy()
    new_vector += np.float32(gamma) * (global_model.vector - prev_global.vector)
    prev_global.copy_from(global_model)              # w_p <- w
    global_model.vector[...] = new_vector            # w   <- w'
