"""Sparse deep-learning substrate: the model the paper trains.

- :mod:`repro.sparse.model_state` — flat-buffer parameter states + replica algebra.
- :mod:`repro.sparse.mlp` — the 3-layer sparse-input MLP (ReLU / softmax / CE).
- :mod:`repro.sparse.loss` — stable multi-label softmax cross-entropy.
- :mod:`repro.sparse.metrics` — P@k / top-1 accuracy.
- :mod:`repro.sparse.init` — paper-style initialization.
- :mod:`repro.sparse.optimizer` — per-replica SGD rules.
- :mod:`repro.sparse.ops` — per-kernel-class flop estimates the devices price.
"""

from repro.sparse.init import INIT_SCHEMES, initialize
from repro.sparse.loss import softmax, softmax_cross_entropy
from repro.sparse.metrics import precision_at_k, top1_accuracy
from repro.sparse.mlp import ForwardCache, MLPArchitecture, SparseMLP
from repro.sparse.model_state import ModelState, ParameterSpec, weighted_average
from repro.sparse.ops import estimate_step_flops
from repro.sparse.optimizer import MomentumSGD, sgd_step

__all__ = [
    "INIT_SCHEMES",
    "initialize",
    "softmax",
    "softmax_cross_entropy",
    "precision_at_k",
    "top1_accuracy",
    "ForwardCache",
    "MLPArchitecture",
    "SparseMLP",
    "ModelState",
    "ParameterSpec",
    "weighted_average",
    "estimate_step_flops",
    "MomentumSGD",
    "sgd_step",
]
