"""Time attribution and straggler/critical-path analysis over a trace.

This module answers the first two questions the paper's Figure 1 raises for
any recorded run: *where did the time go on every device*, and *which GPU
held the mega-batch back*. Everything is a pure function of
:class:`~repro.telemetry.events.RunData`; nothing here touches a live
simulation.

Attribution invariant: for every device, the reported components
(compute + transfer + rebuild + other busy + all-reduce wait + merge wait
+ idle) sum to the ``run`` span's duration *exactly* (idle is computed as
the remainder, so the invariant holds to float addition error — the
acceptance tests pin it below 1e-6).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.events import (
    EVENT_MEMBERSHIP,
    EVENT_SWAP_COMMIT,
    EVENT_SWAP_FAILED,
    EVENT_SWAP_ROLLBACK,
    GAUGE_ACCURACY,
    GAUGE_ACTIVE_DEVICES,
    GAUGE_LOSS,
    SPAN_ALLREDUCE,
    SPAN_LSH_REBUILD,
    SPAN_MERGE,
    SPAN_RUN,
    SPAN_SERVE_BATCH,
    SPAN_SERVE_SWAP,
    SPAN_STEP,
    SPAN_TRANSFER,
    SHED_REASONS,
    RunData,
    SpanEvent,
    span_totals,
)
from repro.telemetry.trace_data import TraceData, load_trace_data
from repro.utils.serialization import jsonable

__all__ = [
    "DeviceAttribution",
    "RunAttribution",
    "BoundaryDiagnosis",
    "StragglerReport",
    "busy_and_gap_idle",
    "attribute_time",
    "critical_path",
    "utilization_lanes",
    "scoring_split",
    "swap_events",
    "membership_events",
    "tenant_breakdown",
    "headline_metrics",
    "RunAnalysis",
    "analyze_run",
    "analyze_source",
    "analyze_report",
]

Interval = Tuple[float, float]

#: Minimum fastest-to-slowest throughput gap before a device is called a
#: straggler (mirrors the paper's Figure 1 framing: the measured gap on
#: "identical" hardware is far above this).
STRAGGLER_GAP = 0.05


# -- interval arithmetic -----------------------------------------------------
def _union(intervals: Sequence[Interval]) -> List[Interval]:
    """Merge possibly-overlapping intervals into a sorted disjoint union."""
    merged: List[Interval] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _length(union: Sequence[Interval]) -> float:
    return sum(end - start for start, end in union)


def _difference_length(
    a: Sequence[Interval], b: Sequence[Interval]
) -> float:
    """``|union(a) \\ union(b)|`` for disjoint sorted unions ``a`` and ``b``."""
    total = 0.0
    j = 0
    for start, end in a:
        cursor = start
        while j < len(b) and b[j][1] <= cursor:
            j += 1
        k = j
        while k < len(b) and b[k][0] < end:
            cut_start, cut_end = b[k]
            if cut_start > cursor:
                total += cut_start - cursor
            cursor = max(cursor, min(cut_end, end))
            if cut_end >= end:
                break
            k += 1
        if cursor < end:
            total += end - cursor
    return total


# -- time attribution --------------------------------------------------------
@dataclass
class DeviceAttribution:
    """Wall-clock decomposition of one device's run (simulated seconds)."""

    device: int
    compute_s: float = 0.0
    transfer_s: float = 0.0
    rebuild_s: float = 0.0
    #: Device spans outside the uniform schema (future-proofing: the sum
    #: invariant must survive new span kinds).
    other_s: float = 0.0
    #: Time parked inside a merge stage while its collective ran.
    allreduce_wait_s: float = 0.0
    #: Remaining merge-stage time (weight computation, normalization).
    merge_wait_s: float = 0.0
    #: Everything else: waiting on the scheduler, stragglers, ramp-down.
    idle_s: float = 0.0
    steps: int = 0
    #: Samples processed: sum of ``size`` args over ``step.compute`` spans
    #: (training) and ``serve.batch`` spans (requests, for serving runs).
    samples: int = 0
    #: Gaps between *consecutive* compute spans only (``None`` without
    #: steps; see :func:`busy_and_gap_idle`).
    gap_idle_s: Optional[float] = None
    #: Seconds this device was executing its own spans.
    busy_s: float = 0.0
    #: Sum of every component (must equal the run span).
    total_s: float = 0.0
    #: Samples per simulated compute second (``None`` without steps).
    throughput: Optional[float] = None


@dataclass
class RunAttribution:
    """Per-device + driver time decomposition of one run."""

    run: int
    label: str
    run_span_s: float
    n_boundaries: int
    devices: List[DeviceAttribution] = field(default_factory=list)
    #: Driver-lane totals: merge stage, the collective inside it, other.
    driver: Dict[str, float] = field(default_factory=dict)
    #: Largest |components − run span| over devices (the invariant).
    max_residual: float = 0.0


def _by_device(run: RunData) -> Dict[int, List[SpanEvent]]:
    """Device -> its spans in span order, for every device, in one pass."""
    groups: Dict[int, List[SpanEvent]] = {d: [] for d in run.devices()}
    for span in run.spans:
        if span.device is not None:
            groups[span.device].append(span)
    return groups


def busy_and_gap_idle(run: RunData) -> Dict[int, Tuple[float, float]]:
    """Device -> ``(busy_s, gap_idle_s)`` of its compute spans
    (``step.compute`` / ``serve.batch``), devices in first-compute order.

    The spans are walked in recorded order (non-decreasing start per
    device) against a running-max end: a gap between consecutive spans is
    idle, and one starting before the previous ended clamps it at zero.
    """
    lanes: Dict[int, List[float]] = {}  # device -> [busy, gap, last end]
    for span in run.spans:
        if span.device is None or (
                span.name != SPAN_STEP and span.name != SPAN_SERVE_BATCH):
            continue
        start = span.ts
        end = start + span.dur
        lane = lanes.get(span.device)
        if lane is None:
            lanes[span.device] = [end - start, 0.0, end]
            continue
        lane[0] += end - start
        lane[1] += max(0.0, start - lane[2])
        lane[2] = max(lane[2], end)
    return {device: (busy, gap) for device, (busy, gap, _) in lanes.items()}


def attribute_time(run: RunData) -> RunAttribution:
    """Decompose ``run``'s wall clock per device; components sum to the
    ``run`` span (see the module invariant)."""
    run_s = run.duration()

    merge_union = _union([
        (s.ts, s.ts + s.dur)
        for s in run.spans_named(SPAN_MERGE, device=None)
    ])
    allreduce_union = _union([
        (s.ts, s.ts + s.dur)
        for s in run.spans_named(SPAN_ALLREDUCE, device=None)
    ])
    merge_total = _length(merge_union)
    allreduce_total = _length(allreduce_union)

    att = RunAttribution(
        run=run.index,
        label=run.label(),
        run_span_s=run_s,
        n_boundaries=len(run.spans_named(SPAN_MERGE, device=None)),
        driver={
            "merge_s": merge_total,
            "allreduce_s": allreduce_total,
            "merge_other_s": merge_total - allreduce_total,
            "rebuild_s": sum(
                s.dur for s in run.spans_named(SPAN_LSH_REBUILD, device=None)
            ),
            "run_s": run_s,
        },
    )

    gap_idle = busy_and_gap_idle(run)
    for device_id, spans in _by_device(run).items():
        dev = DeviceAttribution(device=device_id)
        busy_intervals: List[Interval] = []
        for span in spans:
            busy_intervals.append((span.ts, span.ts + span.dur))
            if span.name in (SPAN_STEP, SPAN_SERVE_BATCH):
                # serve.batch is the serving-side compute unit: batches
                # count as steps, coalesced requests as samples.
                dev.compute_s += span.dur
                dev.steps += 1
                size = span.args.get("size")
                if isinstance(size, (int, float)):
                    dev.samples += int(size)
            elif span.name == SPAN_TRANSFER:
                dev.transfer_s += span.dur
            elif span.name == SPAN_LSH_REBUILD:
                dev.rebuild_s += span.dur
            elif span.name == SPAN_RUN:
                busy_intervals.pop()  # a device-level root would distort busy
            else:
                dev.other_s += span.dur
        busy_union = _union(busy_intervals)
        dev.busy_s = dev.compute_s + dev.transfer_s + dev.rebuild_s + dev.other_s
        # Merge-stage time the device spent parked (not executing a span),
        # split into the collective and the rest of the merge stage.
        dev.allreduce_wait_s = _difference_length(allreduce_union, busy_union)
        merge_wait_total = _difference_length(merge_union, busy_union)
        dev.merge_wait_s = merge_wait_total - dev.allreduce_wait_s
        # Idle is the remainder, so components sum to the run span exactly.
        dev.idle_s = run_s - dev.busy_s - merge_wait_total
        dev.total_s = (
            dev.busy_s + dev.allreduce_wait_s + dev.merge_wait_s + dev.idle_s
        )
        if dev.compute_s > 0.0 and dev.samples > 0:
            dev.throughput = dev.samples / dev.compute_s
        if device_id in gap_idle:
            dev.gap_idle_s = gap_idle[device_id][1]
        att.devices.append(dev)
    att.max_residual = max(
        (abs(d.total_s - run_s) for d in att.devices), default=0.0
    )
    return att


# -- straggler / critical path -----------------------------------------------
@dataclass
class BoundaryDiagnosis:
    """One mega-batch boundary: who arrived last, who waited how long."""

    index: int
    #: Merge-stage start (the barrier everyone converged on).
    merge_ts: float
    window_start: float
    critical_device: Optional[int]
    #: Device -> idle seconds between its last activity and the barrier.
    idle_before: Dict[int, float] = field(default_factory=dict)


@dataclass
class StragglerReport:
    """Per-run straggler diagnosis mirroring the paper's Figure 1."""

    run: int
    label: str
    boundaries: List[BoundaryDiagnosis] = field(default_factory=list)
    #: Device -> number of boundaries it was the last to arrive at.
    critical_counts: Dict[int, int] = field(default_factory=dict)
    #: Device -> final cumulative update count (the `u_i` of Algorithm 1).
    update_counts: Dict[int, float] = field(default_factory=dict)
    #: max(u_i) - min(u_i): the update-count skew adaptivity should close.
    update_skew: float = 0.0
    #: min(u_i) / max(u_i), 1.0 when perfectly balanced.
    update_balance: float = 1.0
    #: Device -> relative per-sample slowdown vs the fastest device.
    slowdowns: Dict[int, float] = field(default_factory=dict)
    #: Fastest-to-slowest relative gap (Figure 1's headline number).
    heterogeneity_index: float = 0.0
    straggler: Optional[int] = None
    reason: str = ""


def critical_path(run: RunData) -> StragglerReport:
    """Straggler and per-boundary critical-device analysis of ``run``: a
    device arrives at a merge at its latest span end in ``[window_start,
    merge.ts + 1e-12]``, else at ``window_start`` (the previous merge's
    end); the last to arrive, lowest id on a tie, is critical. Ends are
    sorted once per device and bisected per merge; NaN ends are left out."""
    report = StragglerReport(run=run.index, label=run.label())
    by_device = _by_device(run)
    merges = sorted(
        run.spans_named(SPAN_MERGE, device=None), key=lambda s: s.ts
    )
    device_ends = {
        d: sorted(
            s.ts + s.dur for s in spans
            if s.name != SPAN_RUN and not math.isnan(s.ts + s.dur)
        )
        for d, spans in by_device.items()
    }
    window_start = run.start()
    for k, merge in enumerate(merges):
        diag = BoundaryDiagnosis(
            index=k,
            merge_ts=merge.ts,
            window_start=window_start,
            critical_device=None,
        )
        last_seen: Dict[int, float] = {}
        for d, ends in device_ends.items():
            i = bisect_right(ends, merge.ts + 1e-12)
            arrival = max(window_start, ends[i - 1]) if i else window_start
            last_seen[d] = arrival
            diag.idle_before[d] = max(0.0, merge.ts - arrival)
        if last_seen:
            latest = max(last_seen.values())
            diag.critical_device = min(
                d for d, end in last_seen.items() if end == latest
            )
            report.critical_counts[diag.critical_device] = (
                report.critical_counts.get(diag.critical_device, 0) + 1
            )
        report.boundaries.append(diag)
        window_start = merge.ts + merge.dur

    # Update-count skew (Algorithm 1's u_i spread).
    report.update_counts = run.update_counts()
    if report.update_counts:
        values = list(report.update_counts.values())
        hi, lo = max(values), min(values)
        report.update_skew = hi - lo
        report.update_balance = (lo / hi) if hi > 0 else 1.0

    # Per-sample throughput -> relative slowdown vs the fastest device.
    throughputs: Dict[int, float] = {}
    for d, spans in by_device.items():
        compute = 0.0
        samples = 0
        for name in (SPAN_STEP, SPAN_SERVE_BATCH):  # a fixed summation order
            for s in spans:
                if s.name == name:
                    compute += s.dur
                    size = s.args.get("size")
                    if isinstance(size, (int, float)):
                        samples += int(size)
        if compute > 0.0 and samples > 0:
            throughputs[d] = samples / compute
    if throughputs:
        fastest = max(throughputs.values())
        report.slowdowns = {
            d: (fastest / t) - 1.0 for d, t in throughputs.items()
        }
        report.heterogeneity_index = max(report.slowdowns.values())

    # The straggler verdict: hardware speed first (Figure 1's notion),
    # arrival order as the fallback signal when speeds are indistinguishable.
    if report.heterogeneity_index > STRAGGLER_GAP:
        report.straggler = min(
            d for d, s in report.slowdowns.items()
            if s == report.heterogeneity_index
        )
        pieces = [
            f"gpu{report.straggler} is "
            f"{report.heterogeneity_index * 100:.1f}% slower per sample "
            f"than the fastest device"
        ]
        critical = report.critical_counts.get(report.straggler, 0)
        if merges:
            pieces.append(
                f"last to arrive at {critical}/{len(merges)} merge boundaries"
            )
        report.reason = "; ".join(pieces)
    elif report.critical_counts:
        top = max(report.critical_counts.values())
        if len(by_device) > 1 and top > len(merges) / 2:
            report.straggler = min(
                d for d, c in report.critical_counts.items() if c == top
            )
            report.reason = (
                f"gpu{report.straggler} was last to arrive at "
                f"{top}/{len(merges)} merge boundaries"
            )
    return report


# -- utilization lanes -------------------------------------------------------
#: Timeline glyphs: compute / serve batch / transfer / LSH rebuild / other /
#: merge / all-reduce / hot-swap warming. Idle renders as the timeline's
#: background dot.
LANE_GLYPHS = {
    SPAN_STEP: "#",
    SPAN_SERVE_BATCH: "S",
    SPAN_TRANSFER: "T",
    SPAN_LSH_REBUILD: "R",
    SPAN_MERGE: "M",
    SPAN_ALLREDUCE: "A",
    SPAN_SERVE_SWAP: "W",
}


def utilization_lanes(run: RunData) -> Dict[str, List[Tuple[float, float, str]]]:
    """Per-device (+driver) ``(start, end, glyph)`` intervals for the ASCII
    timeline (:func:`repro.utils.tables.format_timeline`)."""
    lanes: Dict[str, List[Tuple[float, float, str]]] = {}
    for device_id, spans in _by_device(run).items():
        lanes[f"gpu{device_id}"] = [
            (s.ts, s.ts + s.dur, LANE_GLYPHS.get(s.name, "o"))
            for s in spans if s.name != SPAN_RUN
        ]
    driver = [
        (s.ts, s.ts + s.dur, LANE_GLYPHS[name])
        for name in (SPAN_MERGE, SPAN_ALLREDUCE, SPAN_SERVE_SWAP)
        for s in run.spans_named(name, device=None)
    ]
    if driver or lanes:
        lanes["driver"] = driver
    return lanes


# -- the aggregated report ---------------------------------------------------
def scoring_split(run: "RunData") -> Optional[dict]:
    """Per-path serving summary from the run's ``serve.batch`` spans.

    Returns ``None`` for non-serving runs (or traces recorded before the
    scoring crossover existed). Otherwise one entry per scoring path —
    ``exact`` / ``lsh`` — with the batches, samples and simulated seconds it
    absorbed, plus the mean observed candidate fraction on the LSH side:
    the `auto`-mode decision record, viewable via ``repro analyze``.
    """
    batches = run.spans_named(SPAN_SERVE_BATCH)
    tagged = [s for s in batches if "scoring" in s.args]
    if not tagged:
        return None
    paths: Dict[str, dict] = {}
    for span in tagged:
        path = str(span.args["scoring"])
        entry = paths.setdefault(
            path, {"batches": 0, "samples": 0, "sim_s": 0.0}
        )
        entry["batches"] += 1
        entry["samples"] += int(span.args.get("size", 0))
        entry["sim_s"] += span.dur
    fractions = [
        float(s.args["candidate_fraction"])
        for s in tagged
        if "candidate_fraction" in s.args
    ]
    out = {"paths": paths}
    if fractions:
        out["mean_candidate_fraction"] = sum(fractions) / len(fractions)
    return out


def _served(run: "RunData"):
    """Arrival and latency arrays of the run's completed requests, read off
    its request table; ``None`` for a run without one."""
    table = run.requests
    if table is None:
        return None
    import numpy as np  # a serving run's: training archives never load it

    served = np.array(table.shed) == 0
    arrival = np.array(table.arrival)[served]
    return arrival, np.array(table.done)[served] - arrival


def _window_p99(served, t0: float, t1: float) -> dict:
    """Requests whose lifetime (arrival to ``arrival + latency``) overlaps
    ``[t0, t1]``: their count and p99 latency, against the steady-state
    p99 of every other request; nothing for a run without a table."""
    from repro.serve.loadgen import nearest_rank_percentile

    if served is None:
        return {}
    arrival, latency = served
    hit = (arrival <= t1) & (arrival + latency >= t0)
    out = {"requests_in_window": int(hit.sum())}
    if hit.any():
        out["p99_in_window_s"] = nearest_rank_percentile(latency[hit], 99)
    if not hit.all():
        out["p99_steady_s"] = nearest_rank_percentile(latency[~hit], 99)
    return out


def swap_events(run: "RunData") -> Optional[dict]:
    """Hot-swap attribution from the run's ``serve.swap`` telemetry.

    Returns ``None`` for runs with no swap activity. Otherwise a summary —
    commit / rollback / failure counts — plus one entry per warming window
    with the p99 latency of requests whose lifetime overlapped it versus
    the steady-state p99 of every other request: the record that lets
    ``repro analyze`` attribute a latency blip to the swap that caused it.
    """
    warmings = run.spans_named(SPAN_SERVE_SWAP)
    commits = [i for i in run.instants if i.name == EVENT_SWAP_COMMIT]
    rollbacks = [i for i in run.instants if i.name == EVENT_SWAP_ROLLBACK]
    failures = [i for i in run.instants if i.name == EVENT_SWAP_FAILED]
    if not (warmings or commits or rollbacks or failures):
        return None
    served = _served(run)
    rolled_back = {i.args.get("version") for i in rollbacks}
    events = []
    for span in warmings:
        t1 = span.ts + span.dur
        events.append({
            "version_from": span.args.get("version_from"),
            "version_to": span.args.get("version_to"),
            "t_warm_start": span.ts,
            "t_commit": t1,
            "warm_s": span.dur,
            "rolled_back": span.args.get("version_to") in rolled_back,
            **_window_p99(served, span.ts, t1),
        })
    out = {
        "commits": len(commits),
        "rollbacks": len(rollbacks),
        "failures": len(failures),
        "events": events,
    }
    reasons = [str(i.args.get("reason", "")) for i in rollbacks]
    if reasons:
        out["rollback_reasons"] = reasons
    errors = [str(i.args.get("error", "")) for i in failures]
    if errors:
        out["failure_errors"] = errors
    return out


def membership_events(run: "RunData") -> Optional[dict]:
    """Elastic-membership attribution from ``membership.event`` instants.

    Returns ``None`` for runs with no membership activity. Otherwise a
    summary — delivered / applied / suppressed counts, per-kind and
    per-source breakdowns, the ``active_devices`` gauge envelope — plus
    one entry per *applied* event attributing its local impact:

    - training runs get the loss gauge straddling the event (last sample
      before vs first after, and the delta — the "convergence blip");
    - serving runs get the p99 of requests whose lifetime overlapped the
      post-event window versus the steady p99 of everything else (the
      same windowing :func:`swap_events` uses for warmings).
    """
    instants = [i for i in run.instants if i.name == EVENT_MEMBERSHIP]
    if not instants:
        return None
    by_kind: Dict[str, int] = {}
    by_source: Dict[str, int] = {}
    applied_count = 0
    for instant in instants:
        kind = str(instant.args.get("kind", "?"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        source = str(instant.args.get("source", "?"))
        by_source[source] = by_source.get(source, 0) + 1
        if instant.args.get("applied"):
            applied_count += 1
    out: Dict[str, object] = {
        "n_events": len(instants),
        "n_applied": applied_count,
        "n_suppressed": len(instants) - applied_count,
        "by_kind": dict(sorted(by_kind.items())),
        "by_source": dict(sorted(by_source.items())),
    }
    devices = run.series(GAUGE_ACTIVE_DEVICES)
    if devices:
        values = [v for _, v in devices]
        out["active_devices"] = {
            "initial": values[0],
            "final": values[-1],
            "min": min(values),
            "max": max(values),
        }
    loss = [(t, v) for t, v in run.series(GAUGE_LOSS) if math.isfinite(v)]
    served = _served(run)
    # Post-event attribution window: until the next membership event (or
    # run end), capped at a tenth of the run — local impact, not drift.
    cap = run.duration() / 10 if run.duration() > 0 else float("inf")
    times = sorted(i.ts for i in instants)
    events = []
    for instant in instants:
        if not instant.args.get("applied"):
            continue
        t = instant.ts
        entry: Dict[str, object] = {
            "t": t,
            "kind": str(instant.args.get("kind", "?")),
            "device": instant.device,
            "source": str(instant.args.get("source", "?")),
        }
        if "factor" in instant.args:
            entry["factor"] = instant.args["factor"]
        if loss:
            before = [v for ts, v in loss if ts <= t]
            after = [v for ts, v in loss if ts > t]
            if before and after:
                entry["loss_before"] = before[-1]
                entry["loss_after"] = after[0]
                entry["loss_delta"] = after[0] - before[-1]
        if served is not None and served[0].size:
            later = [ts for ts in times if ts > t]
            t1 = min(later[0] if later else t + cap, t + cap)
            entry.update(_window_p99(served, t, t1))
        events.append(entry)
    out["events"] = events
    return out


def tenant_breakdown(run: "RunData") -> Optional[dict]:
    """Per-tenant/per-class serving summary from a multi-tenant trace.

    Hands the run's request table to
    :func:`~repro.serve.loadgen.tenant_accounts`, the function the live
    ``ServeResult`` is built with, and adds the shed count by reason.
    Returns ``None`` for single-tenant runs with no shed activity and for
    runs without a table. Tenant throughput here is completions over the
    completed requests' window, first arrival to last ``arrival +
    latency``.
    """
    table = run.requests
    if table is None:
        return None
    n_shed = len(table.shed) - table.shed.count(0)
    if not n_shed and len(table.tenant_names) <= 1:
        return None
    # Past the early returns: a training archive never loads the serve layer.
    from repro.serve.loadgen import tenant_accounts

    arrival, latency = _served(run)
    window = 0.0
    if arrival.size:
        window = (arrival + latency).max() - arrival.min()
    tenants, classes, fairness = tenant_accounts(table, latency, window)
    out = {
        "tenants": tenants,
        "classes": {str(c): row for c, row in classes.items()},
        "n_shed": n_shed,
    }
    if n_shed:
        reasons = Counter(SHED_REASONS[c] for c in table.shed if c)
        out["shed_reasons"] = dict(sorted(reasons.items()))
    if fairness is not None:
        out["fairness"] = fairness
    return out


def headline_metrics(run: RunData) -> Dict[str, float]:
    """Flat headline metrics for one run: the run registry's report row.

    Everything is a finite float keyed by a stable name — the run's
    duration, best/final accuracy (when the gauge was sampled), the total
    update count, and per-phase span totals as ``span/<name>_s`` — so the
    dict drops straight into the cross-run index's metrics table and
    ``repro runs history`` can chart any of it.
    """
    out: Dict[str, float] = {"duration_s": run.duration()}
    accuracy = [v for _, v in run.series(GAUGE_ACCURACY) if math.isfinite(v)]
    if accuracy:
        out["best_accuracy"] = max(accuracy)
        out["final_accuracy"] = accuracy[-1]
    updates = sum(run.update_counts().values(), 0.0)
    if updates > 0:
        out["updates_total"] = updates
    membership = [i for i in run.instants if i.name == EVENT_MEMBERSHIP]
    if membership:
        out["n_membership_events"] = len(membership)
        devices = run.series(GAUGE_ACTIVE_DEVICES)
        if devices:
            out["final_devices"] = devices[-1][1]
    for name, (total, _count) in span_totals(run.spans).items():
        out[f"span/{name}_s"] = total
    return {k: float(v) for k, v in out.items() if math.isfinite(v)}


@dataclass
class RunAnalysis:
    """Everything ``repro analyze`` knows about one run, computed once:
    ``--json`` prints :meth:`as_dict`, the text report renders the fields.
    ``as_dict`` exists because of ``run``: the JSON carries its index,
    label and meta, not the whole record stream."""

    run: RunData
    attribution: RunAttribution
    straggler: StragglerReport
    #: ``repro.telemetry.diagnose.Finding`` rows.
    findings: list
    #: The sections only some runs have, under their ``--json`` key
    #: (``serving_scoring`` / ``serving_swaps`` / ``membership`` /
    #: ``serving_tenants``), in print order.
    sections: Dict[str, dict]

    def as_dict(self) -> dict:
        return {
            "run": self.run.index,
            "label": self.run.label(),
            "meta": dict(self.run.meta),
            "attribution": self.attribution,
            "straggler": self.straggler,
            "findings": self.findings,
            **self.sections,
        }


def analyze_run(run: RunData) -> RunAnalysis:
    """The one place a run's analyses are computed."""
    from repro.telemetry.diagnose import diagnose

    straggler = critical_path(run)
    sections = {
        "serving_scoring": scoring_split(run),
        "serving_swaps": swap_events(run),
        "membership": membership_events(run),
        "serving_tenants": tenant_breakdown(run),
    }
    return RunAnalysis(
        run, attribute_time(run), straggler,
        diagnose(run, straggler_report=straggler),
        {key: value for key, value in sections.items() if value is not None},
    )


def analyze_source(
    source, *, run: Optional[int] = None
) -> Tuple[TraceData, List[RunAnalysis]]:
    """Load ``source`` (anything
    :func:`~repro.telemetry.trace_data.load_trace_data` accepts) and analyse
    every run in it, or only the one at index ``run``."""
    data = load_trace_data(source)
    runs = data.runs if run is None else [data.run(run)]
    return data, [analyze_run(run_data) for run_data in runs]


def analyze_report(source, *, run: Optional[int] = None) -> dict:
    """The full analysis of a trace as one JSON-safe dict.

    Serializing the result with ``json.dumps(..., sort_keys=True)`` yields
    byte-identical output for a live recorder and the JSONL archive of the
    same run (the recorder holds what its archive loads back).
    """
    data, analyses = analyze_source(source, run=run)
    return jsonable({
        "label": data.label,
        "runs": [analysis.as_dict() for analysis in analyses],
        "kernels": [dict(row) for row in data.kernels],
    })
