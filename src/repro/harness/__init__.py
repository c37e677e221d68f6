"""Experiment harness: methodology, runners, figure builders, reporting.

- :mod:`repro.harness.trainer_base` — the shared §V-A training protocol.
- :mod:`repro.harness.traces` — run records and derived metrics.
- :mod:`repro.harness.experiment` — specs and the grid runner.
- :mod:`repro.harness.figures` — one builder per paper table/figure.
- :mod:`repro.harness.tta` — time-to-accuracy analysis.
- :mod:`repro.harness.report` — paper-style text rendering.
- :mod:`repro.harness.sweep` — parameter sweeps and the ablation grid.

Exports are resolved lazily (PEP 562): the trainer classes import
``repro.harness.trainer_base``, and an eager ``from .experiment import ...``
here would close an import cycle back into ``repro.core``.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "ALGORITHMS": "repro.harness.experiment",
    "ExperimentSpec": "repro.harness.experiment",
    "run_experiment": "repro.harness.experiment",
    "PAPER_TABLE1": "repro.harness.figures",
    "default_config_for": "repro.harness.figures",
    "allreduce_comparison": "repro.harness.figures",
    "fig1_heterogeneity": "repro.harness.figures",
    "fig4_time_to_accuracy": "repro.harness.figures",
    "fig5_scalability": "repro.harness.figures",
    "fig6_adaptivity": "repro.harness.figures",
    "table1_rows": "repro.harness.figures",
    "render_allreduce": "repro.harness.report",
    "render_fig1": "repro.harness.report",
    "render_fig6": "repro.harness.report",
    "render_table1": "repro.harness.report",
    "render_tta_curves": "repro.harness.report",
    "render_tta_summary": "repro.harness.report",
    "ablation_grid": "repro.harness.sweep",
    "sweep": "repro.harness.sweep",
    "save_trace": "repro.harness.store",
    "load_trace": "repro.harness.store",
    "save_result_set": "repro.harness.store",
    "load_result_set": "repro.harness.store",
    "PaperReport": "repro.harness.paper",
    "reproduce_all": "repro.harness.paper",
    "TrainerBase": "repro.harness.trainer_base",
    "TracePoint": "repro.harness.traces",
    "TrainingTrace": "repro.harness.traces",
    "default_targets": "repro.harness.tta",
    "speedup": "repro.harness.tta",
    "tta_table": "repro.harness.tta",
    "winner_at_time": "repro.harness.tta",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.harness' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(__all__)


if TYPE_CHECKING:  # pragma: no cover - static-analysis aid only
    from repro.harness.experiment import ALGORITHMS, ExperimentSpec, run_experiment
    from repro.harness.figures import (
        PAPER_TABLE1,
        allreduce_comparison,
        fig1_heterogeneity,
        fig4_time_to_accuracy,
        fig5_scalability,
        fig6_adaptivity,
        table1_rows,
    )
    from repro.harness.report import (
        render_allreduce,
        render_fig1,
        render_fig6,
        render_table1,
        render_tta_curves,
        render_tta_summary,
    )
    from repro.harness.sweep import ablation_grid, sweep
    from repro.harness.trainer_base import TrainerBase
    from repro.harness.traces import TracePoint, TrainingTrace
    from repro.harness.tta import default_targets, speedup, tta_table, winner_at_time
