"""The paper's evaluation model: a sparse-input MLP.

§V-A: "a 3-layer Multi-Layer Perceptron (MLP) model having ReLU layer
activation, softmax multi-class probability, and cross-entropy loss" — the
SLIDE testbed model (input → hidden(ReLU) → output/softmax; "3 layers"
counts input, hidden, and output). :class:`SparseMLP` generalizes to any
number of ReLU hidden layers but defaults to the paper's single hidden layer
of 128 units.

Hot-path discipline (per the HPC guides): the forward/backward passes are
fully vectorized; the only sparse-dense products are ``X @ W1`` (CSR×dense)
and ``X.T @ dZ1`` (CSC×dense) whose cost is proportional to the batch's
non-zero count — exactly the sensitivity the paper's cost analysis relies
on. Both call scipy's C kernels directly (``perf.gather.spmm_into`` /
``spmm_t_into``); every activation and delta is a fresh array, and
gradients are written into a flat :class:`ModelState` the caller may reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.perf.gather import slice_rows, spmm_into, spmm_t_into
from repro.sparse.init import initialize
from repro.sparse.loss import softmax_cross_entropy
from repro.sparse.metrics import topk_indices
from repro.sparse.model_state import ModelState, ParameterSpec

if TYPE_CHECKING:  # annotation only; a runtime import closes the cycle
    from repro.data.batching import Batch  # data.batching -> perf -> sparse

__all__ = ["MLPArchitecture", "SparseMLP", "ForwardCache"]


@dataclass(frozen=True)
class MLPArchitecture:
    """Layer dimensions of the sparse MLP."""

    n_features: int
    n_labels: int
    hidden: Tuple[int, ...] = (128,)

    def __post_init__(self) -> None:
        if self.n_features < 1 or self.n_labels < 1:
            raise ConfigurationError(
                f"invalid dims: features={self.n_features}, labels={self.n_labels}"
            )
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigurationError(
                f"hidden layer sizes must be positive, got {self.hidden}"
            )

    @property
    def layer_dims(self) -> List[int]:
        """Full dimension chain: features, hidden..., labels."""
        return [self.n_features, *self.hidden, self.n_labels]

    def parameter_spec(self) -> List[ParameterSpec]:
        """Flat-state layout: ``W{i}`` then ``b{i}`` per layer, in order."""
        dims = self.layer_dims
        spec: List[ParameterSpec] = []
        for i in range(len(dims) - 1):
            spec.append((f"W{i + 1}", (dims[i], dims[i + 1])))
            spec.append((f"b{i + 1}", (dims[i + 1],)))
        return spec

    @property
    def n_params(self) -> int:
        """Total scalar parameter count."""
        dims = self.layer_dims
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


@dataclass
class ForwardCache:
    """Activations retained by :meth:`SparseMLP.forward` for the backward pass."""

    X: sp.csr_matrix
    #: Post-ReLU hidden activations per hidden layer, then raw logits last.
    activations: List[np.ndarray] = field(default_factory=list)

    @property
    def logits(self) -> np.ndarray:
        """Output-layer pre-softmax scores."""
        return self.activations[-1]


class SparseMLP:
    """Forward/backward/loss for the sparse-input MLP.

    The class is stateless with respect to parameters: every method takes the
    :class:`ModelState` it should use, because multi-GPU trainers juggle many
    replicas of the *same* architecture.
    """

    def __init__(self, arch: MLPArchitecture) -> None:
        self.arch = arch
        self._spec = arch.parameter_spec()
        self._n_layers = len(arch.layer_dims) - 1

    # -- state management ----------------------------------------------------
    def init_state(self, seed: int = 0) -> ModelState:
        """A freshly initialized parameter state."""
        return initialize(ModelState.build(self._spec), seed=seed)

    def zeros_state(self) -> ModelState:
        """A zero state (e.g. gradient accumulator)."""
        return ModelState.build(self._spec)

    # -- inference ---------------------------------------------------------
    def forward(
        self,
        X: sp.csr_matrix,
        state: ModelState,
        *,
        upto: Optional[int] = None,
    ) -> ForwardCache:
        """Compute activations for ``X``; retain what backward needs.

        ``upto`` stops after that many affine layers (1-based); the default
        runs them all. The LSH serving path uses it to get the last hidden
        activation without paying for the dense ``(n, L)`` output GEMM it
        exists to avoid — a truncated cache cannot feed ``backward``.
        """
        if X.shape[1] != self.arch.n_features:
            raise ConfigurationError(
                f"X has {X.shape[1]} features, model expects {self.arch.n_features}"
            )
        n_layers = self._n_layers if upto is None else int(upto)
        if not (1 <= n_layers <= self._n_layers):
            raise ConfigurationError(
                f"upto must be in [1, {self._n_layers}], got {upto}"
            )
        cache = ForwardCache(X=X)
        current: object = X
        for layer in range(1, n_layers + 1):
            W = state[f"W{layer}"]
            b = state[f"b{layer}"]
            if layer == 1:  # CSR × dense, cost ∝ nnz(X) · width
                z = np.empty((X.shape[0], W.shape[1]), dtype=np.float32)
                spmm_into(X, W, z)
            else:
                z = current @ W
            z += b  # broadcast add, in place
            if layer < self._n_layers:
                np.maximum(z, 0.0, out=z)  # ReLU in place
            cache.activations.append(z)
            current = z
        return cache

    def predict(self, X: sp.csr_matrix, state: ModelState) -> np.ndarray:
        """Label scores (logits) for ``X`` — ranking them gives predictions."""
        return self.forward(X, state).logits

    def predict_batched(
        self, X: sp.csr_matrix, state: ModelState, *, chunk: int = 2048
    ) -> np.ndarray:
        """Scores for ``X`` computed ``chunk`` rows at a time.

        Bit-identical to one-shot :meth:`predict` (each chunk runs the same
        kernels on the same rows) while bounding the dense intermediate
        activations to ``(chunk, width)`` — for XML label spaces the one-shot
        ``(n, n_labels)`` logits buffer would otherwise dominate memory.
        """
        if chunk < 1:
            raise ConfigurationError(f"chunk must be positive, got {chunk}")
        n = X.shape[0]
        if n <= chunk:  # one chunk covering X is X: no slice, no copy
            return self.predict(X, state)
        scores = np.empty((n, self.arch.n_labels), dtype=np.float32)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            scores[start:stop] = self.predict(X[start:stop], state)
        return scores

    # -- training ------------------------------------------------------------
    def loss_and_grad(
        self,
        batch: Batch,
        state: ModelState,
        grad_out: Optional[ModelState] = None,
    ) -> Tuple[float, ModelState]:
        """Mean loss on ``batch`` and the gradient w.r.t. ``state``.

        ``grad_out`` (when given) is overwritten and returned, letting
        trainers reuse one gradient buffer across steps.
        """
        cache = self.forward(batch.X, state)
        # The logits are dead once the loss has read them: dlogits overwrites
        # their buffer, sparing a second (n, L) array and a pass over it.
        loss, delta = softmax_cross_entropy(
            cache.logits, batch.Y, grad_out=cache.logits, targets=batch.targets
        )
        grad = grad_out if grad_out is not None else self.zeros_state()

        # Backward through layers L..1; delta is dLoss/dz for current layer.
        for layer in range(self._n_layers, 0, -1):
            below = (
                cache.activations[layer - 2] if layer >= 2 else cache.X
            )
            gW = grad[f"W{layer}"]
            gb = grad[f"b{layer}"]
            if layer >= 2:
                np.matmul(below.T, delta, out=gW)
            else:
                # CSC × dense; cost ∝ nnz(X) · width of delta.
                spmm_t_into(below, delta, gW)
            delta.sum(axis=0, out=gb)
            if layer >= 2:
                delta = delta @ state[f"W{layer}"].T
                # ReLU mask of the layer below (its activations are post-ReLU).
                delta *= cache.activations[layer - 2] > 0.0
        return loss, grad

    def evaluate(
        self, X: sp.csr_matrix, state: ModelState, *, chunk: int = 2048
    ) -> np.ndarray:
        """``topk_indices(self.predict(X, state), 1)[:, 0]``, ranked ``chunk``
        rows (zero-copy views of ``X``) at a time: the accuracy probe never
        holds more than one block's ``(chunk, n_labels)`` logits."""
        if chunk < 1:
            raise ConfigurationError(f"chunk must be positive, got {chunk}")
        n = X.shape[0]
        top1 = np.empty(n, dtype=np.intp)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            rows = X if stop - start == n else slice_rows(X, start, stop)
            top1[start:stop] = topk_indices(self.predict(rows, state), 1)[:, 0]
        return top1
