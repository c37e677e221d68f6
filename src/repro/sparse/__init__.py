"""Sparse deep-learning substrate: the model the paper trains.

- :mod:`repro.sparse.model_state` — flat-buffer parameter states + replica algebra.
- :mod:`repro.sparse.mlp` — the 3-layer sparse-input MLP (ReLU / softmax / CE).
- :mod:`repro.sparse.loss` — stable multi-label softmax cross-entropy.
- :mod:`repro.sparse.metrics` — P@k and the tie-stable top-k ranking.
- :mod:`repro.sparse.init` — paper-style initialization.
- :mod:`repro.sparse.optimizer` — per-replica SGD rules.
- :mod:`repro.sparse.ops` — per-kernel-class flop estimates the devices price.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "init": "INIT_SCHEMES initialize",
    "loss": "softmax softmax_cross_entropy",
    "metrics": "precision_at_k topk_indices",
    "mlp": "ForwardCache MLPArchitecture SparseMLP",
    "model_state": "ModelState ParameterSpec weighted_average",
    "ops": "estimate_step_flops",
    "optimizer": "sgd_step",
})
