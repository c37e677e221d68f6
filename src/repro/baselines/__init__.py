"""The paper's comparison set, reimplemented from scratch.

- :mod:`repro.baselines.sync_sgd` — TensorFlow-mirrored gradient aggregation.
- :mod:`repro.baselines.elastic` — Elastic SGD (K-step model averaging).
- :mod:`repro.baselines.crossbow` — CROSSBOW synchronous model averaging.
- :mod:`repro.baselines.slide` — SLIDE (LSH sampled softmax on CPU).
- :mod:`repro.baselines.minibatch` — single-GPU mini-batch SGD reference.
- :mod:`repro.baselines.async_sgd` — asynchronous SGD (spectrum endpoint).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "async_sgd": "AsyncSGDTrainer",
    "crossbow": "CrossbowTrainer",
    "elastic": "ElasticSGDTrainer",
    "minibatch": "MiniBatchSGDTrainer",
    "slide": "ActiveLabelSampler SimHashLSH SlideTrainer",
    "sync_sgd": "SyncSGDTrainer",
})
