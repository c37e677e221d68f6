"""Training traces: everything a run records, and the paper's metrics.

A :class:`TrainingTrace` is the single artifact every trainer produces. It
holds the accuracy-vs-time curve (sampled at mega-batch boundaries, eval
time excluded from the virtual clock — §V-A methodology), plus the
adaptive-mechanism telemetry Figures 6a/6b are drawn from: one
:class:`Boundary` per mega-batch merge (per-GPU batch sizes, perturbation
activation, merge branch, staleness spread).

Derived metrics:

- :meth:`TrainingTrace.time_to_accuracy` — the paper's headline metric;
- :meth:`TrainingTrace.epochs_to_accuracy` — statistical efficiency;
- :meth:`TrainingTrace.series` — ``(x, y)`` pairs for figure regeneration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["Boundary", "TracePoint", "TrainingTrace"]


@dataclass(frozen=True)
class TracePoint:
    """One evaluation checkpoint (taken after a mega-batch merge)."""

    #: Simulated wall-clock seconds elapsed (training only; eval excluded).
    time_s: float
    #: Fractional passes over the training set (statistical-efficiency axis).
    epochs: float
    #: Total model(-replica) updates performed so far, summed over devices.
    updates: int
    #: Training samples consumed so far.
    samples: int
    #: Top-1 test accuracy (P@1).
    accuracy: float
    #: Most recent training loss (mean over the last mega-batch's steps).
    loss: float


@dataclass(frozen=True)
class Boundary:
    """One mega-batch merge: what Algorithms 1 and 2 saw and chose."""

    #: Per-GPU batch sizes the closing mega-batch ran at (Figure 6a).
    batch_sizes: Tuple[int, ...]
    #: Whether the perturbation step fired (Figure 6b).
    perturbed: bool
    #: Algorithm-2 normalization branch.
    branch: str
    #: Update-count spread across the merged replicas.
    staleness: int


@dataclass
class TrainingTrace:
    """Complete record of one training run."""

    algorithm: str
    dataset: str
    n_devices: int
    points: List[TracePoint] = field(default_factory=list)
    #: One record per mega-batch merge, in order.
    boundaries: List[Boundary] = field(default_factory=list)
    #: Free-form run metadata (config, seed, hardware...).
    metadata: Dict[str, object] = field(default_factory=dict)

    # -- recording ----------------------------------------------------------
    def record_point(self, point: TracePoint) -> None:
        """Append an evaluation checkpoint (time must not regress)."""
        if self.points and point.time_s < self.points[-1].time_s:
            raise ConfigurationError(
                f"trace time went backwards: {point.time_s} after "
                f"{self.points[-1].time_s}"
            )
        self.points.append(point)

    # -- basic accessors -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    @property
    def final_accuracy(self) -> float:
        """Accuracy at the last checkpoint (0.0 for an empty trace)."""
        return self.points[-1].accuracy if self.points else 0.0

    @property
    def best_accuracy(self) -> float:
        """Highest accuracy reached at any checkpoint."""
        return max((p.accuracy for p in self.points), default=0.0)

    @property
    def total_time(self) -> float:
        """Simulated seconds covered by the trace."""
        return self.points[-1].time_s if self.points else 0.0

    @property
    def total_epochs(self) -> float:
        """Training-set passes covered by the trace."""
        return self.points[-1].epochs if self.points else 0.0

    # -- paper metrics ------------------------------------------------------
    def time_to_accuracy(self, target: float) -> Optional[float]:
        """First simulated time at which accuracy >= ``target`` (else None)."""
        for p in self.points:
            if p.accuracy >= target:
                return p.time_s
        return None

    def epochs_to_accuracy(self, target: float) -> Optional[float]:
        """Epochs needed to first reach ``target`` accuracy (else None)."""
        for p in self.points:
            if p.accuracy >= target:
                return p.epochs
        return None

    def accuracy_at_time(self, t: float) -> float:
        """Best accuracy achieved by simulated time ``t`` (step function)."""
        best = 0.0
        for p in self.points:
            if p.time_s > t:
                break
            best = max(best, p.accuracy)
        return best

    def perturbation_frequency(self) -> float:
        """Fraction of merge boundaries at which perturbation fired."""
        if not self.boundaries:
            return 0.0
        return float(np.mean([b.perturbed for b in self.boundaries]))

    # -- figure series -------------------------------------------------------
    def series(self, x: str = "time", y: str = "accuracy") -> List[Tuple[float, float]]:
        """``(x, y)`` samples; axes: time | epochs | updates | samples vs
        accuracy | loss."""
        x_getters = {
            "time": lambda p: p.time_s,
            "epochs": lambda p: p.epochs,
            "updates": lambda p: float(p.updates),
            "samples": lambda p: float(p.samples),
        }
        y_getters = {
            "accuracy": lambda p: p.accuracy,
            "loss": lambda p: p.loss,
        }
        if x not in x_getters:
            raise ConfigurationError(f"unknown x-axis {x!r}; options {list(x_getters)}")
        if y not in y_getters:
            raise ConfigurationError(f"unknown y-axis {y!r}; options {list(y_getters)}")
        gx, gy = x_getters[x], y_getters[y]
        return [(gx(p), gy(p)) for p in self.points]

    def batch_size_series(self, gpu: int) -> List[Tuple[float, float]]:
        """(mega-batch index, batch size) for one GPU — Figure 6a's curves."""
        if not self.boundaries:
            return []
        n = len(self.boundaries[0].batch_sizes)
        if not (0 <= gpu < n):
            raise ConfigurationError(f"gpu must be in [0, {n}), got {gpu}")
        return [
            (float(i), float(b.batch_sizes[gpu]))
            for i, b in enumerate(self.boundaries)
        ]

    def label(self) -> str:
        """Standard curve label, e.g. ``"Adaptive SGD (4 GPUs)"``."""
        unit = "GPU" if self.n_devices == 1 else "GPUs"
        return f"{self.algorithm} ({self.n_devices} {unit})"
