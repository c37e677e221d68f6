"""Adaptive SGD — the paper's primary contribution.

- :mod:`repro.core.config` — hyperparameters and the §V-A derivation rules.
- :mod:`repro.core.scaling` — Algorithm 1 (batch size scaling).
- :mod:`repro.core.merging` — Algorithm 2 (normalized model merging).
- :mod:`repro.core.scheduler` — the dynamic scheduler component.
- :mod:`repro.core.adaptive` — the full trainer on the simulated cluster.
- :mod:`repro.core.stability` — steady-state/oscillation detection.
- :mod:`repro.core.staleness` — the analytical staleness bound.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "adaptive": "AdaptiveSGDTrainer",
    "config": "AdaptiveSGDConfig",
    "merging": "MergeWeights compute_merge_weights merge_models",
    "scaling": "ScalingDecision scale_batch_sizes",
    "scheduler": "BoundaryReport DynamicScheduler",
    "stability": "ScalingGovernor StabilityDetector StabilityState",
    "staleness": "staleness_bound",
})
