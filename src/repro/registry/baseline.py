"""History-based regression baselines for the bench gates.

The checked-in ``BENCH_*.json`` files pin a single hand-refreshed
expectation; the registry gives the gates the fleet's actual trajectory
instead. :func:`history_baseline` takes the **median of the last
``BASELINE_WINDOW`` green runs** of a metric (robust to one outlier run in
either direction) and falls back to the checked-in value whenever the index
has fewer than ``MIN_RUNS`` prior greens — so a fresh clone, a wiped CI cache,
or a brand-new bench section gates exactly as before.

Red runs never enter the window: a run whose own gate failed would
otherwise ratchet the baseline down and mask the regression it detected.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.registry.index import RunRegistry

__all__ = ["BASELINE_WINDOW", "BaselineResolution", "history_baseline"]

#: Green runs per bench tag that form the rolling baseline window; ``gc``
#: protects this many newest greens per ``bench:<name>`` tag.
BASELINE_WINDOW = 5
#: Green runs a metric needs in the index before its history is trusted.
MIN_RUNS = 2


@dataclass(frozen=True)
class BaselineResolution:
    """Where a gate's expected value came from."""

    #: Metric name as indexed (e.g. ``sections/gather/speedup``).
    metric: str
    #: The resolved expectation (``None`` when neither history nor a
    #: fallback could supply one).
    value: Optional[float]
    #: ``"history"`` (median of the window) or ``"fallback"``.
    source: str
    #: Green runs that contributed (0 for fallback).
    n: int
    #: The contributing run_ids, oldest first.
    run_ids: Tuple[str, ...] = ()

    def describe(self) -> str:
        """One line for gate output: where the number came from."""
        if self.source == "history":
            return (
                f"index history (median of {self.n} green run(s): "
                f"{', '.join(self.run_ids)})"
            )
        return "fallback (checked-in baseline)"


def history_baseline(
    registry: Optional[RunRegistry],
    metric: str,
    *,
    bench: Optional[str] = None,
    fallback: Optional[float] = None,
) -> BaselineResolution:
    """Resolve a gate's expected value for ``metric``.

    With a registry holding at least ``MIN_RUNS`` green runs of the metric
    (scoped to tag ``bench:<bench>`` when given), the expectation is the
    median of the newest ``BASELINE_WINDOW`` of them; otherwise
    ``fallback``. The current run must be registered *after* its gate
    runs, so a run never contributes to its own baseline.
    """
    if registry is not None:
        tag = f"bench:{bench}" if bench else None
        history: List[Tuple[str, float]] = registry.metric_history(
            metric, tag=tag, status="green", limit=BASELINE_WINDOW
        )
        if len(history) >= MIN_RUNS:
            return BaselineResolution(
                metric=metric,
                value=statistics.median(v for _, v in history),
                source="history",
                n=len(history),
                run_ids=tuple(run_id for run_id, _ in history),
            )
    return BaselineResolution(
        metric=metric, value=fallback, source="fallback", n=0
    )
