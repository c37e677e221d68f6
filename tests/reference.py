"""Float64 two-pass reference for the training step (test oracle only).

This is the loss ``repro.sparse.loss`` shipped before the one-pass float32
version, and the allocating ``SparseMLP`` forward/backward that went with it,
frozen here so the shipped kernels have an independent implementation to be
compared against: gradients bit-for-bit, the loss scalar within ``1e-6``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DataFormatError
from repro.sparse.loss import softmax


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, stable via max-subtraction (out-of-place)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def uniform_label_targets(Y: sp.csr_matrix) -> sp.csr_matrix:
    """Each row of the indicator ``Y`` normalized to sum to one (CSR)."""
    counts = np.diff(Y.indptr)
    if (counts == 0).any():
        raise DataFormatError("a sample without labels has no target distribution")
    data = np.repeat((1.0 / counts).astype(np.float32), counts)
    return sp.csr_matrix((data, Y.indices.copy(), Y.indptr.copy()), shape=Y.shape)


def softmax_cross_entropy(logits, Y, grad_out=None):
    """``(loss, dlogits)``: float64 ``log_softmax`` pass, then a softmax pass."""
    n = logits.shape[0]
    targets = uniform_label_targets(Y)
    logp = log_softmax(logits.astype(np.float64, copy=False))
    rows = np.repeat(np.arange(n), np.diff(targets.indptr))
    cols = targets.indices
    loss = float(-(targets.data * logp[rows, cols]).sum() / n)

    dlogits = softmax(logits, out=grad_out)
    if dlogits.dtype != np.float32:
        dlogits = dlogits.astype(np.float32)
    dlogits[rows, cols] -= targets.data
    dlogits /= np.float32(n)
    return loss, dlogits


def forward(mlp, X, state):
    """Allocating forward pass: post-ReLU hidden activations, then logits."""
    n_layers = len(mlp.arch.layer_dims) - 1
    activations = []
    current = X
    for layer in range(1, n_layers + 1):
        z = current @ state[f"W{layer}"]
        z += state[f"b{layer}"]
        if layer < n_layers:
            np.maximum(z, 0.0, out=z)
        activations.append(z)
        current = z
    return activations


def loss_and_grad(mlp, batch, state):
    """Allocating forward + two-pass loss + allocating backward."""
    activations = forward(mlp, batch.X, state)
    loss, delta = softmax_cross_entropy(activations[-1], batch.Y)
    grad = mlp.zeros_state()
    for layer in range(len(activations), 0, -1):
        below = activations[layer - 2] if layer >= 2 else batch.X
        if layer >= 2:
            np.matmul(below.T, delta, out=grad[f"W{layer}"])
        else:
            grad[f"W{layer}"][...] = (below.T @ delta).astype(np.float32, copy=False)
        delta.sum(axis=0, out=grad[f"b{layer}"])
        if layer >= 2:
            delta = delta @ state[f"W{layer}"].T
            delta *= activations[layer - 2] > 0.0
    return loss, grad
