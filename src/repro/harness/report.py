"""The program's text reports: the one module that lays out text.

Each ``render_*`` takes the result a command or a figure builder produced
(a dataclass, a row list, a recorder) and returns its aligned tables,
``key : value`` rows and ``(x, y)`` series — the text analogue of the
paper's plots, for terminals, CI logs and EXPERIMENTS.md. The JSON view of
the same results is their fields (``repro.utils.serialization.jsonable``),
never built here. ``benchmarks/e2e`` parses the ``key : value`` rows of the
train and serve reports, so their keys are a contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.utils.tables import (
    format_kv, format_series, format_sparkline, format_table, format_timeline,
)

if TYPE_CHECKING:
    from repro.harness.traces import TrainingTrace
    from repro.harness.tta import TTAEntry

__all__ = [
    "render_fig1",
    "render_table1",
    "render_tta_curves",
    "render_tta_summary",
    "render_fig4",
    "render_fig5",
    "render_fig6",
    "render_allreduce",
    "render_telemetry_summary",
    "render_train",
    "render_churn",
    "render_snapshot",
    "render_serve",
    "render_noisy_neighbor",
    "render_attribution",
    "render_utilization",
    "render_straggler",
    "render_findings",
    "render_scoring",
    "render_swaps",
    "render_membership",
    "render_tenants",
    "render_comparison",
    "render_analysis",
    "render_runs_table",
    "render_run_show",
    "render_metric_history",
]


def render_telemetry_summary(tel) -> str:
    """Simulated time per span kind plus the host kernel profile of a
    :class:`~repro.telemetry.core.Telemetry` recorder."""
    from repro.telemetry.events import span_totals

    spans = [span for run in tel.runs for span in run.spans]
    rows = [
        [name, count, total * 1e3, (total / count) * 1e6]
        for name, (total, count) in sorted(
            span_totals(spans).items(), key=lambda kv: -kv[1][0]
        )
    ]
    instants = sum(len(run.instants) for run in tel.runs)
    out = format_table(
        ["span", "count", "total sim ms", "mean sim us"],
        rows,
        title=f"Telemetry summary — {len(tel.runs)} run(s), "
              f"{len(spans)} spans, {instants} instants",
    )
    kernel_rows = tel.kernels.as_records()
    if kernel_rows:
        out += "\n\n" + format_table(
            ["kernel", "calls", "host ms", "mean host us"],
            [
                [
                    r["kernel"], r["calls"], r["host_s"] * 1e3,
                    (r["host_s"] / r["calls"]) * 1e6 if r["calls"] else 0.0,
                ]
                for r in kernel_rows
            ],
            title="Host-side kernel profile (repro.perf, wall clock)",
        )
    return out


def render_train(trace: TrainingTrace) -> str:
    """``repro train``'s report of one run."""
    return format_kv({
        "dataset": trace.dataset,
        "gpus": trace.n_devices,
        "best accuracy": trace.best_accuracy,
        "final accuracy": trace.final_accuracy,
        "epochs": trace.total_epochs,
        "mega-batches": len(trace.boundaries),
        "perturbation frequency": trace.perturbation_frequency(),
    })


def render_churn(profile: str, summary: Mapping) -> str:
    """``repro train --churn``'s membership report; ``summary`` is
    :meth:`repro.elastic.membership.ClusterMembership.summary`."""
    by_kind = " ".join(
        f"{k}={n}" for k, n in sorted(summary["by_kind"].items())
    )
    return format_kv({
        "churn profile": profile,
        "membership events": (
            f"{summary['n_applied']} applied, "
            f"{summary['n_suppressed']} suppressed"
        ),
        "by kind": by_kind or "none",
        "final devices": summary["final_devices"],
        "updates merged/discarded": (
            f"{summary['updates_merged']}/{summary['updates_discarded']}"
        ),
    })


def render_snapshot(
    trace: TrainingTrace, algorithm: str, n_params: int, header
) -> str:
    """``repro snapshot``'s report: the run that trained the model and the
    header file it was saved under."""
    return format_kv({
        "dataset": trace.dataset,
        "algorithm": algorithm,
        "final accuracy": trace.final_accuracy,
        "parameters": n_params,
        "snapshot": str(header),
    })


def render_serve(result, rate: float, *, shed: bool, autoscale: bool) -> str:
    """One ``repro serve`` replay (a
    :class:`~repro.serve.result.ServeResult` at offered load ``rate``) under
    its ``-- mode --`` header; a run served from a store adds its hot-swap
    rows, ``shed`` / ``autoscale`` those of a queue cap and the
    autoscaler."""
    p50, p95, p99 = result.latency_ms()
    rows = {
        "requests": len(result.latencies_s),
        "offered load (rps)": round(rate, 1),
        "throughput (rps)": round(result.throughput_rps, 1),
        "p50 latency (ms)": round(p50, 4),
        "p95 latency (ms)": round(p95, 4),
        "p99 latency (ms)": round(p99, 4),
        "mean batch size": round(result.mean_batch_size, 2),
        "max queue depth": result.max_queue_depth,
        "scoring": result.scoring,
    }
    if result.scoring == "auto":
        rows["scoring split (batches)"] = " ".join(
            f"{path}={n}" for path, n in sorted(result.scoring_batches.items())
        ) or "none"
    if result.mean_candidate_fraction is not None:
        rows["mean candidate fraction"] = round(
            result.mean_candidate_fraction, 4
        )
    if result.hot_swap:
        rows["hot swaps"] = (
            f"{result.n_swaps} committed, {result.n_rollbacks} rolled back, "
            f"{result.n_swap_failures} failed"
        )
        rows["versions served"] = " ".join(
            f"v{v}={n}" for v, n in sorted(result.versions_served.items())
        ) or "none"
        rows["mis-versioned"] = result.mis_versioned
    if shed:
        rows["shed requests"] = result.n_shed
    if result.final_devices is not None:
        rows["membership events"] = result.n_membership_events
        rows["final devices"] = result.final_devices
        if autoscale:
            rows["autoscale admits/retires"] = (
                f"{result.n_autoscale_admits}/{result.n_autoscale_retires}"
            )
    return f"-- {result.mode} --\n" + format_kv(rows)


def render_noisy_neighbor(
    solo, noisy, *, victim_rps: float, aggressor_rps: float,
    aggressor_factor: float,
) -> str:
    """``repro serve --tenants``: the class-0 victim's p99 ``solo`` vs
    ``noisy`` (both :class:`~repro.serve.result.ServeResult`), then each
    tenant of the contended run."""
    solo_p99 = solo.tenants["victim"]["latency_p99_ms"]
    noisy_p99 = noisy.tenants["victim"]["latency_p99_ms"]
    blocks = ["-- multi-tenant noisy neighbor --", format_kv({
        "victim rate (rps)": round(victim_rps, 1),
        "aggressor rate (rps)": round(aggressor_rps, 1),
        "aggressor factor (x fair share)": aggressor_factor,
        "victim p99 solo (ms)": round(solo_p99, 4),
        "victim p99 contended (ms)": round(noisy_p99, 4),
        "isolation ratio": round(noisy_p99 / solo_p99, 3),
        "fairness (max/min throughput)": (
            round(noisy.fairness, 3) if noisy.fairness is not None else "n/a"
        ),
        "max queue depth": noisy.max_queue_depth,
    })]
    blocks += [
        format_kv({
            f"{name} completed": stats["completed"],
            f"{name} throughput (rps)": _rounded(stats, "throughput_rps", 1),
            f"{name} p50 (ms)": _rounded(stats, "latency_p50_ms", 4),
            f"{name} p99 (ms)": _rounded(stats, "latency_p99_ms", 4),
            f"{name} shed": stats["n_shed"],
        })
        for name, stats in sorted(noisy.tenants.items())
    ]
    return "\n".join(blocks)


def _rounded(row: Mapping, key: str, digits: int):
    """``row[key]`` rounded, or ``-`` when the row has no such figure (a
    tenant with no completions)."""
    return round(row[key], digits) if key in row else "-"


def render_attribution(attribution) -> str:
    """Per-device wall-clock decomposition table for one run.

    ``attribution`` is a :class:`repro.telemetry.analyze.RunAttribution`.
    Every row's components sum to the run span (the engine's invariant), so
    the table reads as a complete answer to "where did the time go".
    """
    rows = []
    run_s = attribution.run_span_s
    for dev in attribution.devices:
        busy_pct = (dev.busy_s / run_s * 100.0) if run_s > 0 else 0.0
        rows.append([
            f"gpu{dev.device}",
            dev.compute_s * 1e3,
            dev.transfer_s * 1e3,
            dev.rebuild_s * 1e3,
            dev.allreduce_wait_s * 1e3,
            dev.merge_wait_s * 1e3,
            dev.idle_s * 1e3,
            f"{busy_pct:.1f}%",
            dev.steps,
        ])
    body = format_table(
        [
            "device", "compute ms", "transfer ms", "rebuild ms",
            "allreduce ms", "merge-wait ms", "idle ms", "busy", "steps",
        ],
        rows,
        title=(
            f"Time attribution — {attribution.label}: "
            f"run span {run_s * 1e3:.4g} ms, "
            f"{attribution.n_boundaries} merge boundaries"
        ),
    )
    driver = attribution.driver
    body += (
        f"\ndriver: merge {driver['merge_s'] * 1e3:.4g} ms "
        f"(allreduce {driver['allreduce_s'] * 1e3:.4g} ms, "
        f"other {driver['merge_other_s'] * 1e3:.4g} ms)"
    )
    return body


def render_utilization(run_data, *, width: int = 64) -> str:
    """ASCII per-device utilization timeline for one run.

    ``run_data`` is a :class:`repro.telemetry.events.RunData`; lanes
    come from :func:`repro.telemetry.analyze.utilization_lanes`.
    """
    from repro.telemetry.analyze import utilization_lanes

    lanes = utilization_lanes(run_data)
    start = run_data.start()
    return format_timeline(
        lanes,
        start=start,
        end=start + run_data.duration(),
        width=width,
        title=f"Device utilization — {run_data.label()}",
        legend={
            "#": "compute", "S": "serve", "T": "transfer", "R": "rebuild",
            "M": "merge", "A": "allreduce", "W": "swap-warm",
        },
    )


def render_straggler(report) -> str:
    """Straggler / critical-path section for one run.

    ``report`` is a :class:`repro.telemetry.analyze.StragglerReport`.
    """
    lines = [f"Straggler analysis — {report.label}"]
    if report.straggler is not None:
        lines.append(f"  straggler: gpu{report.straggler} ({report.reason})")
    else:
        lines.append("  straggler: none detected")
    if report.slowdowns:
        slowdown = ", ".join(
            f"gpu{d}: +{s * 100:.1f}%"
            for d, s in sorted(report.slowdowns.items())
        )
        lines.append(
            f"  per-sample slowdown vs fastest: {slowdown} "
            f"(heterogeneity index {report.heterogeneity_index * 100:.1f}%)"
        )
    if report.update_counts:
        counts = ", ".join(
            f"gpu{d}: {c:.0f}" for d, c in sorted(report.update_counts.items())
        )
        lines.append(
            f"  update counts: {counts} (skew {report.update_skew:.0f}, "
            f"balance {report.update_balance:.2f})"
        )
    if report.boundaries:
        crit = ", ".join(
            f"gpu{d}: {c}" for d, c in sorted(report.critical_counts.items())
        )
        lines.append(
            f"  critical device per boundary ({len(report.boundaries)} "
            f"boundaries): {crit}"
        )
        worst = max(
            (max(b.idle_before.values(), default=0.0) for b in report.boundaries),
            default=0.0,
        )
        lines.append(
            f"  worst idle-before-merge: {worst * 1e3:.4g} ms"
        )
    return "\n".join(lines)


def render_findings(findings: Sequence) -> str:
    """Convergence findings table (``repro.telemetry.diagnose.Finding``)."""
    if not findings:
        return "Findings: none — the run looks healthy."
    rows = [
        [
            f.severity.upper(),
            f.detector,
            "driver" if f.device is None else f"gpu{f.device}",
            f"{f.t_start:.4g}-{f.t_end:.4g}s",
            f.message,
        ]
        for f in findings
    ]
    return format_table(
        ["severity", "detector", "where", "window", "finding"],
        rows,
        title=f"Findings ({len(findings)})",
    )


def render_scoring(scoring: Mapping) -> str:
    """Scoring-split section for one serving run.

    ``scoring`` is the dict :func:`repro.telemetry.analyze.scoring_split`
    returns: what each ranking path (``exact`` / ``lsh``) absorbed.
    """
    lines = ["Scoring split — batches per ranking path"]
    for path, entry in sorted(scoring["paths"].items()):
        lines.append(
            f"  {path}: {entry['batches']} batches, "
            f"{entry['samples']} samples, {entry['sim_s'] * 1e3:.4g} sim ms"
        )
    if "mean_candidate_fraction" in scoring:
        lines.append(
            "  mean candidate fraction: "
            f"{scoring['mean_candidate_fraction']:.4f}"
        )
    return "\n".join(lines)


def _window_p99(event: Mapping, lead: str) -> str:
    """The p99-in-window-vs-steady clause of a swap or membership event."""
    if "p99_in_window_s" not in event or "p99_steady_s" not in event:
        return ""
    return (
        f"{lead}p99 in window {event['p99_in_window_s'] * 1e3:.4g} ms "
        f"vs steady {event['p99_steady_s'] * 1e3:.4g} ms"
    )


def render_swaps(swaps: Mapping) -> str:
    """Hot-swap section for one serving run.

    ``swaps`` is the dict :func:`repro.telemetry.analyze.swap_events`
    returns (commit/rollback/failure counts + per-warming-window latency
    attribution).
    """
    lines = [
        f"Hot swaps — {swaps['commits']} committed, "
        f"{swaps['rollbacks']} rolled back, {swaps['failures']} failed"
    ]
    for event in swaps.get("events", []):
        verdict = "ROLLED BACK" if event.get("rolled_back") else "ok"
        piece = (
            f"  v{event.get('version_from')} -> v{event.get('version_to')} "
            f"@ {event['t_commit']:.4g}s "
            f"(warm {event['warm_s'] * 1e3:.4g} ms): {verdict}"
        )
        piece += _window_p99(event, ", ")
        lines.append(piece)
    for reason in swaps.get("rollback_reasons", []):
        lines.append(f"  rollback: {reason}")
    for error in swaps.get("failure_errors", []):
        lines.append(f"  failure: {error}")
    return "\n".join(lines)


def render_tenants(tenants: Mapping) -> str:
    """Multi-tenant section for one serving run.

    ``tenants`` is the dict :func:`repro.telemetry.analyze.tenant_breakdown`
    returns (per-tenant/per-class completions, p99, shed counts, fairness).
    """
    header = f"Tenants — {len(tenants.get('tenants', {}))}"
    if "fairness" in tenants:
        header += f", throughput fairness (max/min) {tenants['fairness']:.3g}"
    if tenants.get("n_shed"):
        reasons = tenants.get("shed_reasons", {})
        detail = ", ".join(f"{r}: {n}" for r, n in sorted(reasons.items()))
        header += f", {tenants['n_shed']} shed" + (
            f" ({detail})" if detail else ""
        )
    rows = []
    for name, row in sorted(tenants.get("tenants", {}).items()):
        classes = row.get("priority_classes")
        rows.append([
            name,
            "/".join(str(c) for c in classes) if classes else "-",
            row.get("completed", 0),
            f"{row['latency_p50_ms']:.4g}" if "latency_p50_ms" in row else "-",
            f"{row['latency_p99_ms']:.4g}" if "latency_p99_ms" in row else "-",
            row.get("n_shed", 0),
        ])
    body = format_table(
        ["tenant", "class", "completed", "p50 (ms)", "p99 (ms)", "shed"],
        rows,
        title=header,
    )
    class_rows = tenants.get("classes", {})
    if class_rows:
        lines = [body, "  per class:"]
        for cls, row in sorted(class_rows.items(), key=lambda kv: int(kv[0])):
            piece = (
                f"    class {cls}: {row.get('completed', 0)} completed, "
                f"{row.get('n_shed', 0)} shed"
            )
            if "latency_p99_ms" in row:
                piece += f", p99 {row['latency_p99_ms']:.4g} ms"
            lines.append(piece)
        return "\n".join(lines)
    return body


def render_membership(membership: Mapping) -> str:
    """Elastic-membership section for one run.

    ``membership`` is the dict
    :func:`repro.telemetry.analyze.membership_events` returns (event
    counts, active-device envelope, per-event loss/latency attribution).
    """
    by_kind = membership.get("by_kind", {})
    kinds = ", ".join(f"{k}: {n}" for k, n in sorted(by_kind.items()))
    header = (
        f"Membership — {membership['n_events']} events "
        f"({membership['n_applied']} applied, "
        f"{membership['n_suppressed']} suppressed)"
    )
    if kinds:
        header += f" [{kinds}]"
    lines = [header]
    devices = membership.get("active_devices")
    if devices:
        lines.append(
            f"  active devices: {devices['initial']:.0f} -> "
            f"{devices['final']:.0f} "
            f"(min {devices['min']:.0f}, max {devices['max']:.0f})"
        )
    for event in membership.get("events", []):
        where = "driver" if event.get("device") is None else f"gpu{event['device']}"
        piece = f"  {event['kind']} {where} @ {event['t']:.4g}s ({event['source']})"
        if "factor" in event:
            piece += f" x{event['factor']:.3g}"
        if "loss_delta" in event:
            piece += (
                f": loss {event['loss_before']:.4g} -> "
                f"{event['loss_after']:.4g} ({event['loss_delta']:+.4g})"
            )
        piece += _window_p99(event, ": ")
        lines.append(piece)
    return "\n".join(lines)


def render_comparison(cmp) -> str:
    """Phase-by-phase comparison of two runs
    (``repro.telemetry.compare.RunComparison``)."""
    header = format_kv({
        "baseline": cmp.baseline,
        "candidate": cmp.candidate,
        "wall clock": (
            f"{cmp.wall_baseline_s * 1e3:.4g} ms -> "
            f"{cmp.wall_candidate_s * 1e3:.4g} ms"
            + (
                f" ({cmp.wall_speedup:.2f}x)"
                if cmp.wall_speedup is not None else ""
            )
        ),
        "best accuracy": (
            f"{cmp.best_accuracy_baseline:.4f} -> "
            f"{cmp.best_accuracy_candidate:.4f}"
        ),
        "updates": (
            f"{cmp.updates_baseline:.0f} -> {cmp.updates_candidate:.0f}"
        ),
    })
    if cmp.tta_target is not None:
        tta_a, tta_b = (
            "not reached" if t is None else f"{t * 1e3:.4g} ms"
            for t in (cmp.tta_baseline_s, cmp.tta_candidate_s)
        )
        delta = (
            f" (delta {cmp.tta_delta_s * 1e3:+.4g} ms)"
            if cmp.tta_delta_s is not None else ""
        )
        header += (
            f"\ntime-to-accuracy @ {cmp.tta_target:.4f}: "
            f"{tta_a} -> {tta_b}{delta}"
        )
    rows = [
        [
            p.name,
            p.baseline_s * 1e3,
            p.candidate_s * 1e3,
            p.delta_s * 1e3,
            f"{p.speedup:.2f}x" if p.speedup is not None else "-",
            "REGRESSION" if p.name in cmp.regressions else "",
        ]
        for p in sorted(cmp.phases, key=lambda p: -p.baseline_s)
    ]
    body = format_table(
        [
            "phase", "baseline ms", "candidate ms", "delta ms",
            "speedup", f"> {cmp.noise * 100:.0f}% noise",
        ],
        rows,
        title="Per-phase simulated time (baseline vs candidate)",
    )
    verdict = (
        f"regressions: {', '.join(cmp.regressions)}"
        if cmp.regressions else "regressions: none beyond the noise threshold"
    )
    return f"{header}\n\n{body}\n{verdict}"


#: ``RunAnalysis.sections`` key -> the section's text.
SECTION_RENDERERS = {
    "serving_scoring": render_scoring,
    "serving_swaps": render_swaps,
    "membership": render_membership,
    "serving_tenants": render_tenants,
}


def render_analysis(source, *, run=None, width: int = 64) -> str:
    """The full ``repro analyze`` text report for a trace source.

    Accepts anything :func:`repro.telemetry.trace_data.load_trace_data`
    does (live recorder, JSONL archive, run directory); the
    sections are the fields of each run's
    :class:`repro.telemetry.analyze.RunAnalysis`.
    """
    from repro.telemetry.analyze import analyze_source

    data, analyses = analyze_source(source, run=run)
    if not analyses:
        return f"Trace {data.label!r}: no runs recorded."
    sections = []
    for analysis in analyses:
        parts = [
            render_attribution(analysis.attribution),
            render_utilization(analysis.run, width=width),
            render_straggler(analysis.straggler),
        ]
        parts += [
            SECTION_RENDERERS[key](section)
            for key, section in analysis.sections.items()
        ]
        parts.append(render_findings(analysis.findings))
        sections.append("\n\n".join(parts))
    return "\n\n".join(sections)


def render_runs_table(records: Sequence) -> str:
    """The ``repro runs ls`` table for a sequence of ``RunRecord``.

    Newest-first (the registry's list order); the caller filters.
    """
    if not records:
        return "no runs registered."
    rows = []
    for record in records:
        rows.append([
            record.run_id,
            record.kind,
            record.algorithm or "-",
            record.dataset or "-",
            record.status,
            record.sim_duration_s,
            ",".join(record.tags) if record.tags else "-",
        ])
    return format_table(
        ["run_id", "kind", "algorithm", "dataset", "status", "sim s", "tags"],
        rows,
    )


def render_run_show(record) -> str:
    """The ``repro runs show`` report: identity block + metrics table."""
    pairs = {
        "run_id": record.run_id,
        "kind": record.kind,
        "algorithm": record.algorithm or "-",
        "dataset": record.dataset or "-",
        "status": record.status,
        "n_devices": record.n_devices,
        "seed": record.seed,
        "sim duration s": record.sim_duration_s,
        "path": record.path or "-",
        "trace": record.trace_path or "-",
        "git": (
            f"{record.git_commit[:12]}{' (dirty)' if record.git_dirty else ''}"
            if record.git_commit else "-"
        ),
        "tags": ",".join(record.tags) if record.tags else "-",
    }
    out = format_kv(pairs)
    if record.metrics:
        out += "\n\n" + format_table(
            ["metric", "value"],
            [[name, value] for name, value in sorted(record.metrics.items())],
            title="headline metrics",
        )
    return out


def render_metric_history(
    name: str, history: Sequence, *, width: int = 64
) -> str:
    """``repro runs history``: sparkline + per-run values, oldest first.

    ``history`` is the registry's ``(run_id, value)`` list in
    chronological order, so the sparkline's right edge is the latest run.
    """
    if not history:
        return f"no runs recorded metric {name!r}."
    values = [value for _, value in history]
    lines = [
        f"{name} — {len(values)} run(s), "
        f"min {min(values):.4g}, max {max(values):.4g}, "
        f"latest {values[-1]:.4g}",
        format_sparkline(values, width=width),
        "",
        format_table(
            ["run_id", "value"],
            [[run_id, value] for run_id, value in history],
        ),
    ]
    return "\n".join(lines)


def render_fig1(rows: Sequence[Mapping[str, float]]) -> str:
    """Figure 1 as a table: per-GPU epoch time and relative slowdown."""
    table_rows = [
        [
            f"GPU {int(r['gpu'])}",
            r["epoch_time_s"] * 1e3,
            f"{r['relative_slowdown'] * 100:.1f}%",
        ]
        for r in rows
    ]
    worst = max(r["relative_slowdown"] for r in rows)
    body = format_table(
        ["device", "epoch time (ms)", "slower than fastest"],
        table_rows,
        title="Figure 1 — heterogeneity on an identical sparse batch",
    )
    return body + f"\nfastest<->slowest gap: {worst * 100:.1f}%"


def render_table1(
    rows: Sequence[Mapping[str, object]],
    paper_rows: Optional[Sequence[Mapping[str, object]]] = None,
) -> str:
    """Table I (ours, optionally followed by the paper's original rows)."""
    headers = list(rows[0].keys())
    out = format_table(
        headers,
        [[r[h] for h in headers] for r in rows],
        title="Table I — synthetic analogue datasets (this reproduction)",
    )
    if paper_rows:
        out += "\n\n" + format_table(
            headers,
            [[r[h] for h in headers] for r in paper_rows],
            title="Table I — original datasets (paper, for reference)",
        )
    return out


def render_tta_curves(
    traces: Mapping[object, TrainingTrace],
    *,
    x: str = "time",
    title: str = "time-to-accuracy",
    max_points: int = 12,
) -> str:
    """Accuracy curves for a set of runs (Figure 4 / 5 style).

    Emits the sampled series (machine-greppable) and an ASCII rendering of
    the curves — the closest a terminal gets to the paper's actual figure.
    """
    series = {
        trace.label(): trace.series(x=x, y="accuracy")
        for trace in traces.values()
    }
    xlabel = "sim seconds" if x == "time" else x
    out = format_series(
        series, title=title, xlabel=xlabel, ylabel="top-1 acc",
        max_points=max_points,
    )
    from repro.utils.plots import ascii_plot

    return out + "\n" + ascii_plot(
        series, xlabel=xlabel, ylabel="acc", width=64, height=14,
    )


def render_tta_summary(traces: Sequence[TrainingTrace]) -> str:
    """Best-accuracy and time/epochs-to-``default_targets`` table for a run
    set."""
    from repro.harness.tta import default_targets, tta_table

    targets = default_targets(traces)
    entries = tta_table(traces, targets)
    by_label: Dict[str, List[TTAEntry]] = {}
    for e in entries:
        by_label.setdefault(e.label, []).append(e)
    headers = ["run", "best acc"] + [f"t@{t:g}" for t in targets]
    rows = []
    for trace in traces:
        row = [trace.label(), trace.best_accuracy]
        for e in by_label[trace.label()]:
            row.append(f"{e.time_s:.4g}s" if e.reached else "not reached")
        rows.append(row)
    return format_table(headers, rows, title="time-to-accuracy summary")


def render_fig4(traces: Mapping[object, TrainingTrace], dataset: str) -> str:
    """Figure 4: the accuracy curves of a method grid and its
    time-to-accuracy summary."""
    return (
        render_tta_curves(traces, title=f"Figure 4 — {dataset}")
        + "\n\n" + render_tta_summary(list(traces.values()))
    )


def render_fig5(traces: Mapping[object, TrainingTrace], dataset: str) -> str:
    """Figure 5a/5b: accuracy over simulated time and over epochs."""
    return (
        render_tta_curves(traces, title=f"Figure 5a — {dataset}")
        + "\n\n" + render_tta_curves(
            traces, x="epochs", title=f"Figure 5b — {dataset}"
        )
    )


def render_fig6(trace: TrainingTrace) -> str:
    """Figure 6a/6b from one Adaptive run's boundaries: batch-size
    evolution, perturbation frequency, merge branches, staleness."""
    series = {
        f"GPU {gpu}": trace.batch_size_series(gpu)
        for gpu in range(trace.n_devices)
    }
    branches: Dict[str, int] = {}
    for boundary in trace.boundaries:
        branches[boundary.branch] = branches.get(boundary.branch, 0) + 1
    staleness = max((b.staleness for b in trace.boundaries), default=0)
    out = format_series(
        series,
        title="Figure 6a — per-GPU batch size after every mega-batch",
        xlabel="mega-batch", ylabel="batch size", max_points=16,
    )
    from repro.utils.plots import ascii_plot

    out += "\n" + ascii_plot(
        series, xlabel="mega-batch", ylabel="batch", width=64, height=12,
    )
    out += (
        f"\nFigure 6b — perturbation activation frequency: "
        f"{trace.perturbation_frequency() * 100:.1f}% of merges"
        f" | merge branches: {branches}"
        f" | max staleness: {staleness} updates"
    )
    return out


def render_allreduce(rows: Sequence[Mapping[str, float]]) -> str:
    """§IV all-reduce comparison table."""
    table_rows = [
        [
            int(r["gpus"]),
            int(r["model_params"]),
            r["ring_multi_ms"],
            r["ring_single_ms"],
            r["tree_single_ms"],
            f"{r['ring_multi_vs_tree']:.1f}x",
        ]
        for r in rows
    ]
    return format_table(
        [
            "gpus", "model params", "ring multi (ms)", "ring single (ms)",
            "tree single (ms)", "ring-multi speedup vs tree",
        ],
        table_rows,
        title="§IV — all-reduce model merging comparison",
    )
