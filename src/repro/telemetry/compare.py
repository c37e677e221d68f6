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
from dataclasses import asdict, dataclass, field
from typing import List, Optional

from repro.telemetry.events import GAUGE_ACCURACY, span_totals
from repro.telemetry.trace_data import RunData

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

    @property
    def delta_s(self) -> float:
        """Candidate minus baseline (positive = candidate spends more)."""
        return self.candidate_s - self.baseline_s

    @property
    def speedup(self) -> Optional[float]:
        """baseline/candidate time ratio (>1 = candidate faster)."""
        if self.candidate_s <= 0.0:
            return None
        return self.baseline_s / self.candidate_s

    def as_dict(self) -> dict:
        return {
            **asdict(self), "delta_s": self.delta_s, "speedup": self.speedup,
        }


@dataclass
class RunComparison:
    """The full verdict of :func:`compare_runs`."""

    baseline_label: str
    candidate_label: str
    wall_baseline_s: float
    wall_candidate_s: float
    phases: List[PhaseDelta] = field(default_factory=list)
    #: Shared accuracy target the TTA delta is measured at.
    tta_target: Optional[float] = None
    tta_baseline_s: Optional[float] = None
    tta_candidate_s: Optional[float] = None
    best_accuracy_baseline: float = 0.0
    best_accuracy_candidate: float = 0.0
    updates_baseline: float = 0.0
    updates_candidate: float = 0.0
    #: Phase names where the candidate exceeds baseline beyond ``noise``.
    regressions: List[str] = field(default_factory=list)
    noise: float = 0.05

    @property
    def wall_speedup(self) -> Optional[float]:
        if self.wall_candidate_s <= 0.0:
            return None
        return self.wall_baseline_s / self.wall_candidate_s

    @property
    def tta_delta_s(self) -> Optional[float]:
        """Candidate TTA minus baseline TTA (negative = candidate faster);
        ``None`` when either run never reached the target."""
        if self.tta_baseline_s is None or self.tta_candidate_s is None:
            return None
        return self.tta_candidate_s - self.tta_baseline_s

    @property
    def tta_speedup(self) -> Optional[float]:
        if (
            self.tta_baseline_s is None
            or self.tta_candidate_s is None
            or self.tta_candidate_s <= 0.0
        ):
            return None
        return self.tta_baseline_s / self.tta_candidate_s

    def as_dict(self) -> dict:
        return {
            "baseline": self.baseline_label,
            "candidate": self.candidate_label,
            "wall_baseline_s": self.wall_baseline_s,
            "wall_candidate_s": self.wall_candidate_s,
            "wall_speedup": self.wall_speedup,
            "phases": [p.as_dict() for p in self.phases],
            "tta_target": self.tta_target,
            "tta_baseline_s": self.tta_baseline_s,
            "tta_candidate_s": self.tta_candidate_s,
            "tta_delta_s": self.tta_delta_s,
            "tta_speedup": self.tta_speedup,
            "best_accuracy_baseline": self.best_accuracy_baseline,
            "best_accuracy_candidate": self.best_accuracy_candidate,
            "updates_baseline": self.updates_baseline,
            "updates_candidate": self.updates_candidate,
            "regressions": list(self.regressions),
            "noise": self.noise,
        }


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
    a directory and its archive) load once; :func:`compare_runs` only reads.
    """
    from repro.telemetry.trace_data import load_trace_data, trace_file

    data_a = load_trace_data(baseline_source)
    baseline = data_a.run(run_a)
    file_a = trace_file(baseline_source)
    same_file = file_a is not None and file_a == trace_file(candidate_source)
    data_b = data_a if same_file else load_trace_data(candidate_source)
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
    an explicit target to reproduce a paper-style fixed threshold.
    """
    best_a = best_accuracy(baseline)
    best_b = best_accuracy(candidate)
    if target is None and best_a > 0.0 and best_b > 0.0:
        target = min(best_a, best_b)

    cmp = RunComparison(
        baseline_label=baseline.label(),
        candidate_label=candidate.label(),
        wall_baseline_s=baseline.duration(),
        wall_candidate_s=candidate.duration(),
        best_accuracy_baseline=best_a,
        best_accuracy_candidate=best_b,
        updates_baseline=sum(baseline.update_counts().values(), 0.0),
        updates_candidate=sum(candidate.update_counts().values(), 0.0),
        noise=noise,
    )
    if target is not None:
        cmp.tta_target = target
        cmp.tta_baseline_s = time_to_accuracy(baseline, target)
        cmp.tta_candidate_s = time_to_accuracy(candidate, target)

    a_totals = span_totals(baseline.spans)
    b_totals = span_totals(candidate.spans)
    names = list(a_totals)
    names += [n for n in b_totals if n not in a_totals]
    for name in names:
        a_s, a_c = a_totals.get(name, (0.0, 0))
        b_s, b_c = b_totals.get(name, (0.0, 0))
        phase = PhaseDelta(
            name=name, baseline_s=a_s, candidate_s=b_s,
            baseline_count=a_c, candidate_count=b_c,
        )
        cmp.phases.append(phase)
        if b_s > a_s * (1.0 + noise) and b_s - a_s > 1e-12:
            cmp.regressions.append(name)
    return cmp
