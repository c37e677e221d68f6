"""Rule-based convergence diagnostics over a recorded run's gauge series.

Each detector scans one family of gauges from the uniform schema and emits
typed :class:`Finding`\\ s — severity, human-readable message, and the
evidence window ``[t_start, t_end]`` the rule fired on — so a run explains
*why* it looks healthy or broken without anyone hand-reading JSONL.

Detectors (all pure functions of :class:`~repro.telemetry.trace_data.RunData`):

- loss divergence / non-finite loss / loss plateau;
- per-device batch-size oscillation and clamp saturation at the observed
  ``b_min``/``b_max`` rails (AdaBatch-style dynamics gone wrong);
- learning-rate blow-up;
- staleness growth across merge boundaries;
- update-count skew and straggler findings bridged from
  :mod:`repro.telemetry.analyze`.

:func:`diagnose` runs the full battery and returns findings sorted most
severe first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.analyze import StragglerReport, critical_path
from repro.telemetry.events import (
    GAUGE_BATCH_SIZE,
    GAUGE_LOSS,
    GAUGE_LR,
    GAUGE_STALENESS,
)
from repro.telemetry.trace_data import RunData

__all__ = [
    "Finding",
    "SEVERITIES",
    "detect_loss_anomalies",
    "detect_batch_size_anomalies",
    "detect_lr_blowup",
    "detect_staleness_growth",
    "detect_straggler",
    "diagnose",
]

#: Ascending severity order (used for sorting; most severe reported first).
SEVERITIES = ("info", "warning", "critical")

Series = Sequence[Tuple[float, float]]

#: Loss: diverged past this multiple of its minimum (critical at twice it).
DIVERGENCE_FACTOR = 2.0
#: Loss: plateaued when the late half improves by less than this fraction.
PLATEAU_TOL = 0.01
#: Batch size: oscillating when its direction flips in more than this
#: fraction of moves; clamped when at least this fraction of samples sit on
#: a rail.
OSC_FRACTION = 0.6
SAT_FRACTION = 0.5
#: Learning rate: blown up past this multiple of its initial value.
BLOWUP_FACTOR = 10.0
#: Staleness: grown when the late-quarter mean exceeds this multiple of the
#: early one.
GROWTH_FACTOR = 2.0
#: Updates: skewed when the update balance falls below this.
BALANCE_THRESHOLD = 0.75
#: Samples a loss or staleness series (``MIN_POINTS``) and a device's batch
#: sizes (``MIN_BATCH_POINTS``) need before their rules run.
MIN_POINTS = 4
MIN_BATCH_POINTS = 5


@dataclass
class Finding:
    """One detector verdict with its evidence window."""

    detector: str
    severity: str
    message: str
    run: int
    device: Optional[int] = None
    #: Evidence window on the simulated clock.
    t_start: float = 0.0
    t_end: float = 0.0
    #: The numbers the rule fired on (scalars, or dicts of them).
    evidence: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )


def _finite(series: Series) -> List[Tuple[float, float]]:
    return [(t, v) for t, v in series if math.isfinite(v)]


# -- loss --------------------------------------------------------------------
def detect_loss_anomalies(run: RunData) -> List[Finding]:
    """Non-finite loss, sustained divergence, and late-run plateaus.

    The leading checkpoint is taken before any step and legitimately
    records ``NaN`` loss, so non-finite values only count *after* the
    first finite sample.
    """
    findings: List[Finding] = []
    series = list(run.series(GAUGE_LOSS))
    finite = _finite(series)
    if not finite:
        return findings

    first_finite_t = finite[0][0]
    bad = [
        (t, v) for t, v in series
        if t > first_finite_t and not math.isfinite(v)
    ]
    if bad:
        findings.append(Finding(
            detector="loss_nonfinite",
            severity="critical",
            message=(
                f"loss became non-finite at t={bad[0][0]:.4g}s "
                f"({len(bad)} bad sample(s) after training started)"
            ),
            run=run.index,
            t_start=bad[0][0],
            t_end=bad[-1][0],
            evidence={"bad_samples": len(bad)},
        ))

    values = [v for _, v in finite]
    lo = min(values)
    lo_t = next(t for t, v in finite if v == lo)
    last_t, last_v = finite[-1]
    if lo > 0 and last_v > DIVERGENCE_FACTOR * lo and last_t > lo_t:
        findings.append(Finding(
            detector="loss_divergence",
            severity="critical" if last_v > 2 * DIVERGENCE_FACTOR * lo
            else "warning",
            message=(
                f"loss rose to {last_v:.4g} — "
                f"{last_v / lo:.2f}x its minimum of {lo:.4g} at "
                f"t={lo_t:.4g}s"
            ),
            run=run.index,
            t_start=lo_t,
            t_end=last_t,
            evidence={"min_loss": lo, "final_loss": last_v,
                      "ratio": last_v / lo},
        ))

    if len(finite) >= MIN_POINTS:
        half = finite[len(finite) // 2:]
        first_half_v = half[0][1]
        best_late = min(v for _, v in half)
        if first_half_v > 0 and (first_half_v - best_late) / first_half_v < PLATEAU_TOL:
            findings.append(Finding(
                detector="loss_plateau",
                severity="info",
                message=(
                    f"loss plateaued: <{PLATEAU_TOL * 100:.0f}% improvement "
                    f"over the last {len(half)} checkpoints "
                    f"(stuck near {best_late:.4g})"
                ),
                run=run.index,
                t_start=half[0][0],
                t_end=half[-1][0],
                evidence={"window_points": len(half), "level": best_late},
            ))
    return findings


# -- batch size --------------------------------------------------------------
def detect_batch_size_anomalies(run: RunData) -> List[Finding]:
    """Per-device batch-size oscillation and clamp saturation.

    The rails are the global minimum and maximum batch size observed across
    all devices — saturation means "pinned to the most extreme value anyone
    reached".
    """
    findings: List[Finding] = []
    per_device = {
        d: _finite(run.series(GAUGE_BATCH_SIZE, device=d))
        for d in run.devices()
    }
    all_values = [v for series in per_device.values() for _, v in series]
    if not all_values:
        return findings
    lo_rail = min(all_values)
    hi_rail = max(all_values)
    if lo_rail == hi_rail:
        return findings  # a static-batch algorithm; rails are meaningless

    for device, series in per_device.items():
        if len(series) < MIN_BATCH_POINTS:
            continue
        diffs = [
            b[1] - a[1] for a, b in zip(series, series[1:])
            if b[1] != a[1]
        ]
        flips = sum(
            1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)
        )
        if len(diffs) >= 4 and flips / (len(diffs) - 1) > OSC_FRACTION:
            findings.append(Finding(
                detector="batch_size_oscillation",
                severity="warning",
                message=(
                    f"gpu{device} batch size oscillated: direction flipped "
                    f"{flips}/{len(diffs) - 1} times between rescales"
                ),
                run=run.index,
                device=device,
                t_start=series[0][0],
                t_end=series[-1][0],
                evidence={"flips": flips, "moves": len(diffs)},
            ))
        for rail, name in ((lo_rail, "b_min"), (hi_rail, "b_max")):
            pinned = [(t, v) for t, v in series if v == rail]
            if len(pinned) / len(series) >= SAT_FRACTION:
                findings.append(Finding(
                    detector="batch_size_clamp",
                    severity="warning",
                    message=(
                        f"gpu{device} batch size saturated at "
                        f"{name}={rail:g} for {len(pinned)}/{len(series)} "
                        f"samples — the adaptive range may be too narrow"
                    ),
                    run=run.index,
                    device=device,
                    t_start=pinned[0][0],
                    t_end=pinned[-1][0],
                    evidence={"rail": name, "value": rail,
                              "pinned": len(pinned), "samples": len(series)},
                ))
    return findings


# -- learning rate -----------------------------------------------------------
def detect_lr_blowup(run: RunData) -> List[Finding]:
    """A device's learning rate growing far beyond its initial value."""
    findings: List[Finding] = []
    for device in run.devices():
        series = _finite(run.series(GAUGE_LR, device=device))
        if len(series) < 2:
            continue
        first = series[0][1]
        if first <= 0:
            continue
        peak_t, peak = max(series, key=lambda tv: tv[1])
        if peak > BLOWUP_FACTOR * first:
            findings.append(Finding(
                detector="lr_blowup",
                severity="critical",
                message=(
                    f"gpu{device} learning rate blew up to {peak:.4g} — "
                    f"{peak / first:.1f}x its initial {first:.4g}"
                ),
                run=run.index,
                device=device,
                t_start=series[0][0],
                t_end=peak_t,
                evidence={"initial": first, "peak": peak,
                          "ratio": peak / first},
            ))
    return findings


# -- staleness ---------------------------------------------------------------
def detect_staleness_growth(run: RunData) -> List[Finding]:
    """Update-count spread widening across merge boundaries.

    Growing staleness means the slow device keeps falling further behind —
    the divergence-risk regime §III bounds against.
    """
    series = _finite(run.series(GAUGE_STALENESS))
    if len(series) < MIN_POINTS:
        return []
    quarter = max(1, len(series) // 4)
    early = sum(v for _, v in series[:quarter]) / quarter
    late_samples = series[-quarter:]
    late = sum(v for _, v in late_samples) / len(late_samples)
    if late > 0 and late > GROWTH_FACTOR * max(early, 1.0):
        return [Finding(
            detector="staleness_growth",
            severity="warning",
            message=(
                f"staleness grew from ~{early:.1f} to ~{late:.1f} updates "
                f"across the run — a device is falling progressively behind"
            ),
            run=run.index,
            t_start=series[0][0],
            t_end=series[-1][0],
            evidence={"early_mean": early, "late_mean": late},
        )]
    return []


# -- straggler bridge --------------------------------------------------------
def detect_straggler(
    run: RunData,
    *,
    report: Optional[StragglerReport] = None,
) -> List[Finding]:
    """Findings bridged from the critical-path analysis.

    Emits a straggler finding when one device is measurably slower, and an
    update-skew finding when update counts are badly unbalanced (the skew
    Algorithm 1 exists to close).
    """
    findings: List[Finding] = []
    rep = report if report is not None else critical_path(run)
    if rep.straggler is not None:
        findings.append(Finding(
            detector="straggler",
            severity="warning",
            message=f"straggler: {rep.reason}",
            run=run.index,
            device=rep.straggler,
            t_start=run.start(),
            t_end=run.start() + run.duration(),
            evidence={
                "heterogeneity_index": rep.heterogeneity_index,
                "critical_counts": dict(rep.critical_counts),
            },
        ))
    if rep.update_counts and rep.update_balance < BALANCE_THRESHOLD:
        lo_dev = min(rep.update_counts, key=rep.update_counts.get)
        hi_dev = max(rep.update_counts, key=rep.update_counts.get)
        findings.append(Finding(
            detector="update_skew",
            severity="info",
            message=(
                f"update counts are skewed: gpu{lo_dev} made "
                f"{rep.update_counts[lo_dev]:.0f} updates vs gpu{hi_dev}'s "
                f"{rep.update_counts[hi_dev]:.0f} "
                f"(balance {rep.update_balance:.2f})"
            ),
            run=run.index,
            device=lo_dev,
            t_start=run.start(),
            t_end=run.start() + run.duration(),
            evidence={
                "update_counts": dict(rep.update_counts),
                "balance": rep.update_balance,
            },
        ))
    return findings


# -- the full battery --------------------------------------------------------
def diagnose(
    run: RunData, *, straggler_report: Optional[StragglerReport] = None
) -> List[Finding]:
    """Run every detector over ``run``; findings sorted most severe first
    (ties by evidence-window start)."""
    findings: List[Finding] = []
    findings += detect_loss_anomalies(run)
    findings += detect_batch_size_anomalies(run)
    findings += detect_lr_blowup(run)
    findings += detect_staleness_growth(run)
    findings += detect_straggler(run, report=straggler_report)
    rank = {severity: i for i, severity in enumerate(SEVERITIES)}
    findings.sort(key=lambda f: (-rank[f.severity], f.t_start, f.detector))
    return findings
