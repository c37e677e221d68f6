"""Experiment harness: methodology, runners, figure builders, reporting.

- :mod:`repro.harness.trainer_base` — the shared §V-A training protocol.
- :mod:`repro.harness.traces` — run records and derived metrics.
- :mod:`repro.harness.experiment` — specs and the grid runner.
- :mod:`repro.harness.figures` — one builder per paper table/figure.
- :mod:`repro.harness.tta` — time-to-accuracy analysis.
- :mod:`repro.harness.report` — paper-style text rendering.
- :mod:`repro.harness.sweep` — parameter sweeps and the ablation grid.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "experiment": "ExperimentSpec default_config_for grid_spec run_experiment",
    "figures": (
        "PAPER_TABLE1 allreduce_comparison "
        "fig1_heterogeneity fig4_time_to_accuracy fig5_scalability "
        "fig6_adaptivity table1_rows"
    ),
    "report": (
        "render_allreduce render_fig1 render_fig4 render_fig5 render_fig6 "
        "render_table1 render_tta_curves render_tta_summary"
    ),
    "sweep": "ablation_grid sweep",
    "store": "save_trace load_trace",
    "paper": "PaperReport reproduce_all",
    "trainer_base": "TrainerBase",
    "traces": "Boundary TracePoint TrainingTrace",
    "tta": "default_targets speedup tta_table",
})
