"""Time-to-accuracy analysis across runs.

The paper's headline comparison (Figure 4): for a set of traces sharing a
task, report when each method first reaches given accuracy targets, which
method achieves the highest accuracy, and speedup factors between methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.harness.traces import TrainingTrace

__all__ = ["TTAEntry", "tta_table", "default_targets", "speedup"]


@dataclass(frozen=True)
class TTAEntry:
    """One trace's time/epochs to one accuracy target."""

    label: str
    target: float
    time_s: Optional[float]
    epochs: Optional[float]
    reached: bool


def default_targets(
    traces: Sequence[TrainingTrace], fractions: Sequence[float] = (0.5, 0.8, 0.95)
) -> List[float]:
    """Accuracy targets as fractions of the best accuracy any trace reached.

    Anchoring on the overall best (not the worst) keeps targets meaningful:
    methods that never reach a target simply report "not reached", exactly
    as a curve that never crosses a level line in the paper's figures.
    """
    if not traces:
        raise ConfigurationError("default_targets requires at least one trace")
    best = max(t.best_accuracy for t in traces)
    if best <= 0:
        raise ConfigurationError("no trace reached positive accuracy")
    return [round(best * f, 4) for f in fractions]


def tta_table(
    traces: Sequence[TrainingTrace],
    targets: Optional[Sequence[float]] = None,
) -> List[TTAEntry]:
    """Time/epochs-to-accuracy entries for every trace × target."""
    if not traces:
        raise ConfigurationError("tta_table requires at least one trace")
    targets = list(targets) if targets is not None else default_targets(traces)
    entries: List[TTAEntry] = []
    for trace in traces:
        for target in targets:
            t = trace.time_to_accuracy(target)
            e = trace.epochs_to_accuracy(target)
            entries.append(
                TTAEntry(
                    label=trace.label(),
                    target=float(target),
                    time_s=t,
                    epochs=e,
                    reached=t is not None,
                )
            )
    return entries


def speedup(
    baseline: TrainingTrace, contender: TrainingTrace, target: float
) -> Optional[float]:
    """``baseline_time / contender_time`` to reach ``target`` (None if either fails)."""
    tb = baseline.time_to_accuracy(target)
    tc = contender.time_to_accuracy(target)
    if tb is None or tc is None or tc == 0:
        return None
    return tb / tc
