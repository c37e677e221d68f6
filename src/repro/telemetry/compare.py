"""Run comparison over the uniform telemetry schema.

Because every trainer emits the same span/gauge vocabulary, any two
recorded runs can be aligned phase-by-phase: per-span-kind simulated time,
wall-clock speedup, time-to-accuracy delta, and update totals — with a
noise threshold separating real regressions from jitter. This is what turns
a pair of ``BENCH_*.json``-style measurements into an explanation: not just
"adaptive was 1.4x faster" but *which phase* paid for it.

``a`` is the baseline and ``b`` the candidate throughout: speedups > 1 mean
the candidate is faster, and a "regression" is a phase where the candidate
spends more than ``noise`` extra time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.exceptions import ConfigurationError
from repro.telemetry.events import GAUGE_ACCURACY, RunData, span_totals

__all__ = [
    "PhaseDelta",
    "RunComparison",
    "compare_runs",
    "diff_runs",
    "time_to_accuracy",
]


def time_to_accuracy(run: RunData, target: float) -> Optional[float]:
    """First simulated time the accuracy gauge reaches ``target``."""
    for t, v in run.series(GAUGE_ACCURACY):
        if math.isfinite(v) and v >= target:
            return t
    return None


def best_accuracy(run: RunData) -> float:
    """Highest accuracy the run's gauge reached (0.0 without samples)."""
    values = [v for _, v in run.series(GAUGE_ACCURACY) if math.isfinite(v)]
    return max(values, default=0.0)


@dataclass
class PhaseDelta:
    """One span kind's totals in baseline vs candidate."""

    name: str
    baseline_s: float
    candidate_s: float
    baseline_count: int
    candidate_count: int
    #: Candidate minus baseline (positive = candidate spends more).
    delta_s: float
    #: baseline/candidate time ratio (>1 = candidate faster).
    speedup: Optional[float]


@dataclass
class RunComparison:
    """The full verdict of :func:`compare_runs`; its fields are the
    ``compare --json`` keys."""

    baseline: str
    candidate: str
    wall_baseline_s: float
    wall_candidate_s: float
    wall_speedup: Optional[float]
    phases: List[PhaseDelta]
    #: Shared accuracy target the TTA delta is measured at.
    tta_target: Optional[float]
    tta_baseline_s: Optional[float]
    tta_candidate_s: Optional[float]
    #: Candidate TTA minus baseline TTA (negative = candidate faster);
    #: ``None`` when either run never reached the target.
    tta_delta_s: Optional[float]
    tta_speedup: Optional[float]
    best_accuracy_baseline: float
    best_accuracy_candidate: float
    updates_baseline: float
    updates_candidate: float
    #: Phase names where the candidate exceeds baseline beyond ``noise``.
    regressions: List[str]
    noise: float


def _ratio(baseline: float, candidate: float) -> Optional[float]:
    """baseline/candidate (>1 = candidate faster); ``None`` for a
    candidate that took no time."""
    return baseline / candidate if candidate > 0.0 else None


def diff_runs(
    baseline_source,
    candidate_source,
    *,
    run_a: int = 0,
    run_b: int = 0,
    target: Optional[float] = None,
    noise: float = 0.05,
) -> RunComparison:
    """Load two trace sources and compare one run from each.

    ``*_source`` is anything
    :func:`~repro.telemetry.trace_data.load_trace_data` accepts. This is
    the single code path behind both ``repro compare`` and
    ``repro runs diff``, so the two commands' JSON output is byte-identical
    for the same pair of traces.

    Two sources naming one file (``compare A A --run-b 1``, grid siblings,
    a directory and its archive) load once, building only the compared
    runs; :func:`compare_runs` only reads.
    """
    from repro.telemetry.trace_data import load_trace_data, trace_file

    file_a = trace_file(baseline_source)
    same_file = file_a is not None and file_a == trace_file(candidate_source)
    runs_a = {run_a, run_b} if same_file else {run_a}
    data_a = load_trace_data(baseline_source, runs=runs_a)
    baseline = data_a.run(run_a)
    data_b = data_a if same_file else load_trace_data(
        candidate_source, runs={run_b})
    return compare_runs(
        baseline, data_b.run(run_b), target=target, noise=noise
    )


def compare_runs(
    baseline: RunData,
    candidate: RunData,
    *,
    target: Optional[float] = None,
    noise: float = 0.05,
) -> RunComparison:
    """Align two runs on the shared schema and report the deltas.

    ``target`` defaults to the highest accuracy *both* runs reached, so the
    time-to-accuracy delta is always measured at an attainable level; pass
    an explicit target to reproduce a paper-style fixed threshold. A
    ``noise`` that is not a finite fraction >= 0, or a ``target`` outside
    (0, 1], is a :class:`~repro.exceptions.ConfigurationError`.
    """
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ConfigurationError(
            f"noise must be a finite fraction >= 0, got {noise}"
        )
    if target is not None and not 0.0 < target <= 1.0:
        raise ConfigurationError(
            f"target must be an accuracy in (0, 1], got {target}"
        )
    best_a = best_accuracy(baseline)
    best_b = best_accuracy(candidate)
    if target is None and best_a > 0.0 and best_b > 0.0:
        target = min(best_a, best_b)
    tta_a = tta_b = None
    if target is not None:
        tta_a = time_to_accuracy(baseline, target)
        tta_b = time_to_accuracy(candidate, target)
    both = tta_a is not None and tta_b is not None

    a_totals = span_totals(baseline.spans)
    b_totals = span_totals(candidate.spans)
    names = list(a_totals)
    names += [n for n in b_totals if n not in a_totals]
    phases, regressions = [], []
    for name in names:
        a_s, a_c = a_totals.get(name, (0.0, 0))
        b_s, b_c = b_totals.get(name, (0.0, 0))
        phases.append(PhaseDelta(
            name=name, baseline_s=a_s, candidate_s=b_s,
            baseline_count=a_c, candidate_count=b_c,
            delta_s=b_s - a_s, speedup=_ratio(a_s, b_s),
        ))
        if b_s > a_s * (1.0 + noise) and b_s - a_s > 1e-12:
            regressions.append(name)
    wall_a, wall_b = baseline.duration(), candidate.duration()
    return RunComparison(
        baseline=baseline.label(),
        candidate=candidate.label(),
        wall_baseline_s=wall_a,
        wall_candidate_s=wall_b,
        wall_speedup=_ratio(wall_a, wall_b),
        phases=phases,
        tta_target=target,
        tta_baseline_s=tta_a,
        tta_candidate_s=tta_b,
        tta_delta_s=tta_b - tta_a if both else None,
        tta_speedup=_ratio(tta_a, tta_b) if both else None,
        best_accuracy_baseline=best_a,
        best_accuracy_candidate=best_b,
        updates_baseline=sum(baseline.update_counts().values(), 0.0),
        updates_candidate=sum(candidate.update_counts().values(), 0.0),
        regressions=regressions,
        noise=noise,
    )
