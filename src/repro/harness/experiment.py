"""Experiment specification and runner.

An :class:`ExperimentSpec` captures everything one evaluation run needs —
dataset, algorithms, GPU counts, hardware flavor, hyperparameters, and the
simulated time budget — and :func:`run_experiment` executes the full grid
under the paper's methodology (shared initial model, equal time budgets).

:data:`repro.api.TRAINER_REGISTRY` maps the paper figures' method names to
trainer modules, so benches and examples select methods by string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.api import TRAINER_REGISTRY, make_trainer
from repro.core.config import AdaptiveSGDConfig
from repro.data.dataset import XMLTask
from repro.data.registry import load_task
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import make_server
from repro.gpu.cost import CpuCostParams, GpuCostParams
from repro.harness.traces import TrainingTrace
from repro.telemetry.core import Telemetry

__all__ = ["ExperimentSpec", "RunKey", "run_experiment"]

RunKey = Tuple[str, int]  # (algorithm name, n_gpus)


@dataclass
class ExperimentSpec:
    """One evaluation grid: algorithms × GPU counts on a dataset."""

    dataset: str = "micro"
    algorithms: Tuple[str, ...] = ("adaptive", "elastic", "tensorflow", "crossbow")
    gpu_counts: Tuple[int, ...] = (4,)
    #: Simulated seconds each run gets (identical across runs — §V-A).
    time_budget_s: float = 0.1
    config: AdaptiveSGDConfig = field(default_factory=AdaptiveSGDConfig)
    heterogeneity: str = "het"
    max_gap: float = 0.32
    #: Use the scaled cost profile matched to the small benchmark models.
    tiny_hardware: bool = True
    hidden: Tuple[int, ...] = (64,)
    eval_samples: Optional[int] = 512
    seed: int = 0

    def __post_init__(self) -> None:
        unknown = [a for a in self.algorithms if a not in TRAINER_REGISTRY]
        if unknown:
            raise ConfigurationError(
                f"unknown algorithm(s) {unknown}; "
                f"available: {list(TRAINER_REGISTRY)}"
            )
        if not self.gpu_counts or any(n < 1 for n in self.gpu_counts):
            raise ConfigurationError(
                f"gpu_counts must be positive, got {self.gpu_counts}"
            )
        if not 0 < self.time_budget_s < math.inf:
            raise ConfigurationError(
                f"time_budget_s must be finite and > 0, got {self.time_budget_s}"
            )

    def cost_params(self) -> GpuCostParams:
        """The GPU cost constants this spec's servers use."""
        return (
            GpuCostParams.tiny_model_profile()
            if self.tiny_hardware
            else GpuCostParams()
        )

    def build_server(self, n_gpus: int):
        """A fresh virtual server for one run (device state is per-run)."""
        return make_server(
            n_gpus,
            heterogeneity=self.heterogeneity,
            max_gap=self.max_gap,
            cost_params=self.cost_params(),
            cpu_params=(
                CpuCostParams.tiny_model_profile() if self.tiny_hardware else None
            ),
            seed=self.seed,
        )


def run_experiment(
    spec: ExperimentSpec,
    *,
    task: Optional[XMLTask] = None,
    telemetry: Optional[Telemetry] = None,
) -> Dict[RunKey, TrainingTrace]:
    """Run the full grid; returns ``{(algorithm, n_gpus): trace}``.

    The dataset is generated once and shared; every run gets a fresh server
    (device utilization counters are per-run) and the same simulated budget.
    SLIDE is CPU-only, so it runs once (``n_gpus`` recorded as 1) regardless
    of the GPU grid. ``telemetry`` records every run of the grid into one recorder (the
    Chrome exporter shows each run as its own process).
    """
    task = task or load_task(spec.dataset, seed=spec.seed)
    results: Dict[RunKey, TrainingTrace] = {}
    for algorithm in spec.algorithms:
        counts: Sequence[int] = spec.gpu_counts if algorithm != "slide" else (1,)
        for n_gpus in counts:
            trainer = make_trainer(
                algorithm, spec, task=task, n_gpus=n_gpus, telemetry=telemetry
            )
            trace = trainer.run(time_budget_s=spec.time_budget_s)
            results[(algorithm, n_gpus)] = trace
    return results
