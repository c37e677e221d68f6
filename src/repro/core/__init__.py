"""Adaptive SGD — the paper's primary contribution.

- :mod:`repro.core.config` — hyperparameters and the §V-A derivation rules.
- :mod:`repro.core.scaling` — Algorithm 1 (batch size scaling).
- :mod:`repro.core.merging` — Algorithm 2 (normalized model merging).
- :mod:`repro.core.scheduler` — the dynamic scheduler component.
- :mod:`repro.core.adaptive` — the full trainer on the simulated cluster.
- :mod:`repro.core.stability` — steady-state/oscillation detection.
- :mod:`repro.core.staleness` — the analytical staleness bound.
"""

from repro.core.adaptive import AdaptiveSGDTrainer
from repro.core.config import AdaptiveSGDConfig, linear_scaled_lr
from repro.core.merging import (
    MergeResult,
    MergeWeights,
    compute_merge_weights,
    merge_models,
)
from repro.core.scaling import ScalingDecision, scale_batch_sizes
from repro.core.scheduler import BoundaryReport, DynamicScheduler
from repro.core.stability import ScalingGovernor, StabilityDetector, StabilityState
from repro.core.staleness import staleness_bound

__all__ = [
    "AdaptiveSGDTrainer",
    "AdaptiveSGDConfig",
    "linear_scaled_lr",
    "MergeResult",
    "MergeWeights",
    "compute_merge_weights",
    "merge_models",
    "ScalingDecision",
    "scale_batch_sizes",
    "BoundaryReport",
    "DynamicScheduler",
    "ScalingGovernor",
    "StabilityDetector",
    "StabilityState",
    "staleness_bound",
]
