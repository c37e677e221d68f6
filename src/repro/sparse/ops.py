"""Flop estimates of the sparse kernels, by kernel class.

What the virtual devices price: a training step and a forward-only pass,
each split into the work proportional to input cardinality (``sparse``),
the dense GEMMs and the parameter traversal. ``active_labels`` shrinks the
output dimension for the sampled-softmax / LSH-candidate paths, which only
touch the *active* label columns.
"""

from __future__ import annotations

from typing import Tuple

from repro.exceptions import ConfigurationError

__all__ = ["estimate_step_flops", "estimate_inference_flops"]


def estimate_step_flops(
    batch_size: int,
    batch_nnz: int,
    layer_dims: Tuple[int, ...],
    *,
    active_labels: int = -1,
) -> dict:
    """Floating-point-op estimate of one SGD step, split by kernel class.

    Returns a dict with ``sparse`` (input-layer products ∝ nnz), ``dense``
    (hidden/output GEMMs), and ``update`` (parameter-vector traversal) flop
    counts. ``active_labels`` (when >= 0) replaces the output dimension for
    sampled-softmax trainers. The virtual-GPU cost model prices each class
    with a different throughput (:mod:`repro.gpu.cost`).
    """
    if len(layer_dims) < 2:
        raise ConfigurationError(f"need >= 2 layer dims, got {layer_dims}")
    dims = list(layer_dims)
    if active_labels >= 0:
        dims[-1] = int(active_labels)
    h1 = dims[1]
    # Input layer: forward X@W1 and backward X.T@delta, each 2*nnz*h1.
    sparse_flops = 4.0 * batch_nnz * h1
    # Hidden/output layers: fwd GEMM + two bwd GEMMs each 2*b*din*dout.
    dense_flops = 0.0
    for i in range(1, len(dims) - 1):
        dense_flops += 6.0 * batch_size * dims[i] * dims[i + 1]
    # Parameter update + bias terms: one pass over every parameter.
    n_params = sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))
    if active_labels >= 0:
        # Sampled trainers (SLIDE) update only what they touched: the input
        # rows present in the batch and the active output columns.
        n_params = (
            batch_nnz * h1 + h1 + dims[-2] * dims[-1] + dims[-1]
        )
    return {
        "sparse": float(sparse_flops),
        "dense": float(dense_flops),
        "update": float(2.0 * n_params),
    }


def estimate_inference_flops(
    batch_size: int,
    batch_nnz: int,
    layer_dims: Tuple[int, ...],
    *,
    active_labels: int = -1,
) -> dict:
    """Floating-point-op estimate of one forward-only pass, by kernel class.

    The serving counterpart of :func:`estimate_step_flops`: only the forward
    products run (half the input-layer cost, a third of the GEMM cost) and no
    parameter update happens, so ``update`` is always zero — kept in the dict
    so both estimates price through the same cost-model arithmetic.
    ``active_labels`` (when >= 0) replaces the output dimension for the
    LSH-accelerated scorer that only evaluates candidate label columns.
    """
    if len(layer_dims) < 2:
        raise ConfigurationError(f"need >= 2 layer dims, got {layer_dims}")
    dims = list(layer_dims)
    if active_labels >= 0:
        dims[-1] = int(active_labels)
    h1 = dims[1]
    # Input layer: forward X@W1 only, 2*nnz*h1.
    sparse_flops = 2.0 * batch_nnz * h1
    # Hidden/output layers: one forward GEMM each, 2*b*din*dout.
    dense_flops = 0.0
    for i in range(1, len(dims) - 1):
        dense_flops += 2.0 * batch_size * dims[i] * dims[i + 1]
    return {
        "sparse": float(sparse_flops),
        "dense": float(dense_flops),
        "update": 0.0,
    }
