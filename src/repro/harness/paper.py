"""One-call reproduction of the whole evaluation section.

:func:`reproduce_all` runs every paper artifact in sequence — Figure 1,
Table I, Figure 4 (both datasets), Figure 5 (both datasets), Figure 6, and
the §IV all-reduce comparison — and returns a :class:`PaperReport` holding
the raw results plus the rendered text. :data:`ARTIFACTS` is the one table
of what each artifact builds and how it prints; the ``python -m repro``
commands of the same names and ``examples/full_reproduction.py`` are driven
from it. A figure's training runs can be indexed for later analysis with
:func:`repro.registry.record.record_experiment` (what
``examples/full_reproduction.py --out`` does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

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
    render_fig4,
    render_fig5,
    render_fig6,
    render_table1,
)

__all__ = ["ARTIFACTS", "run_artifact", "PaperReport", "reproduce_all"]

DATASETS = ("amazon670k-bench", "delicious200k-bench")


#: Paper artifact -> ``(build, render)``: ``build(**kwargs)`` runs it and
#: ``render(result, dataset)`` is its text.
ARTIFACTS = {
    "fig1": (fig1_heterogeneity, lambda rows, _: render_fig1(rows)),
    "table1": (table1_rows, lambda rows, _: render_table1(rows, PAPER_TABLE1)),
    "fig4": (fig4_time_to_accuracy, render_fig4),
    "fig5": (fig5_scalability, render_fig5),
    "fig6": (fig6_adaptivity, lambda result, _: render_fig6(result)),
    "allreduce": (
        allreduce_comparison, lambda rows, _: render_allreduce(rows),
    ),
}


def run_artifact(name: str, **kwargs):
    """Build artifact ``name`` with ``kwargs``; returns ``(result, text)``."""
    build, render = ARTIFACTS[name]
    result = build(**kwargs)
    return result, render(result, kwargs.get("dataset"))


@dataclass
class PaperReport:
    """All artifacts of one full reproduction pass."""

    fig1_rows: list
    table1: list
    fig4: Dict[str, dict]
    fig5: Dict[str, dict]
    fig6: object
    allreduce_rows: list
    #: Rendered text per artifact, in paper order.
    sections: List[str] = field(default_factory=list)

    def render(self) -> str:
        """The complete text report."""
        return "\n\n".join(self.sections)


def reproduce_all(
    *,
    time_budget_s: float = 0.3,
    seed: int = 0,
    datasets=DATASETS,
    progress: Optional[Callable[[str], None]] = None,
) -> PaperReport:
    """Run the full evaluation; returns the collected :class:`PaperReport`.

    ``progress`` (when given) receives a one-line status before each stage —
    pass ``print`` for a live console, or a logger method.
    """
    sections: List[str] = []

    def stage(message: str, name: str, **kwargs):
        if progress is not None:
            progress(message)
        result, text = run_artifact(name, **kwargs)
        sections.append(text)
        return result

    budget = {"time_budget_s": time_budget_s, "seed": seed}
    return PaperReport(
        fig1_rows=stage(
            "Figure 1 — heterogeneity measurement", "fig1", seed=seed
        ),
        table1=stage(
            "Table I — dataset characteristics", "table1",
            datasets=datasets, seed=seed,
        ),
        fig4={
            dataset: stage(
                f"Figure 4 — {dataset} (4 methods x 3 GPU counts)", "fig4",
                dataset=dataset, **budget,
            )
            for dataset in datasets
        },
        fig5={
            dataset: stage(
                f"Figure 5 — {dataset} (Adaptive vs SLIDE)", "fig5",
                dataset=dataset, **budget,
            )
            for dataset in datasets
        },
        fig6=stage(
            "Figure 6 — adaptivity telemetry", "fig6",
            dataset=datasets[0], **budget,
        ),
        allreduce_rows=stage("§IV — all-reduce comparison", "allreduce"),
        sections=sections,
    )
