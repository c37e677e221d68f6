"""What one serving run produced: the latency report and its accounts.

:meth:`ServeResult.from_run` folds a finished
:class:`~repro.serve.run.ServeRun` into the JSON-safe result the CLI
prints, the registry indexes (:meth:`ServeResult.headline_metrics`) and
the benchmarks gate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import ServeError
from repro.serve.loadgen import (
    LatencyReport,
    fairness_ratio,
    grouped_nearest_rank_percentiles,
    per_tenant_stats,
)
from repro.serve.queue import RunRequests
from repro.serve.run import ServeRun

__all__ = ["ServeResult"]


@dataclass
class ServeResult:
    """Everything one serving run produced."""

    mode: str
    #: Every request's row, arrival, stamps, tenant, class and shed code.
    requests: RunRequests
    #: ``(n_requests, k)`` int32 top-k label ids by ``req_id``; -1 if shed.
    labels: np.ndarray
    report: LatencyReport
    #: Device id -> requests served there.
    per_device: Dict[int, int] = field(default_factory=dict)
    #: Queue high-water mark over the run.
    max_queue_depth: int = 0
    #: LSH recall@k vs the exact path (None when the exact path served).
    recall_at_k: Optional[float] = None
    k: int = 5
    #: The configured scoring policy ("exact", "lsh", or "auto").
    scoring: str = "exact"
    #: Scoring path -> batches that ran it (auto splits across both).
    scoring_batches: Dict[str, int] = field(default_factory=dict)
    #: Mean candidate fraction over the LSH-scored batches (None if none).
    mean_candidate_fraction: Optional[float] = None
    #: Requests shed by admission control (never completed).
    n_shed: int = 0
    #: Tenant -> {completed, throughput_rps, p50/p95/p99 ms, n_shed}.
    tenants: Dict[str, dict] = field(default_factory=dict)
    #: Priority class -> {completed, p99 ms, n_shed, slo_ms}.
    per_class: Dict[int, dict] = field(default_factory=dict)
    #: Max/min tenant throughput (None for one tenant).
    fairness: Optional[float] = None
    #: Tenant -> requests shed (sums to ``n_shed``).
    shed_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: One record per swap attempt: committed swaps, rollbacks, failures.
    swaps: List[dict] = field(default_factory=list)
    #: Swaps that went live (including any later rolled back).
    n_swaps: int = 0
    #: Committed swaps rolled back by a canary.
    n_rollbacks: int = 0
    #: Published versions that failed validation and were skipped.
    n_swap_failures: int = 0
    #: Model version -> requests it scored.
    versions_served: Dict[int, int] = field(default_factory=dict)
    #: Requests scored by a version other than the one they were admitted
    #: under (the pinning invariant; must be zero).
    mis_versioned: int = 0
    #: The version serving when the run ended.
    active_version: Optional[int] = None
    #: One dict per delivered lifecycle event (elastic runs only).
    membership_events: List[dict] = field(default_factory=list)
    #: Delivered lifecycle events, applied + suppressed.
    n_membership_events: int = 0
    #: Active devices when the run ended (None for a static run).
    final_devices: Optional[int] = None
    #: Devices the queue-depth autoscaler admitted / retired.
    n_autoscale_admits: int = 0
    n_autoscale_retires: int = 0

    def headline_metrics(self) -> dict:
        """Flat finite-float metrics for the cross-run index.

        The serving counterpart of
        :func:`repro.telemetry.analyze.headline_metrics`: stable names,
        every value a finite float, optional facets (recall, fairness)
        present only when the run produced them.
        """
        out = {
            "n_requests": float(self.report.n_requests),
            "throughput_rps": float(self.report.throughput_rps),
            "latency_p50_ms": self.report.percentile(50) * 1e3,
            "latency_p95_ms": self.report.percentile(95) * 1e3,
            "latency_p99_ms": self.report.percentile(99) * 1e3,
            "mean_batch_size": float(self.report.mean_batch_size),
            "max_queue_depth": float(self.max_queue_depth),
            "n_shed": float(self.n_shed),
            "n_swaps": float(self.n_swaps),
            "n_rollbacks": float(self.n_rollbacks),
            "n_swap_failures": float(self.n_swap_failures),
            "mis_versioned": float(self.mis_versioned),
        }
        if self.recall_at_k is not None:
            out["recall_at_k"] = float(self.recall_at_k)
        if self.mean_candidate_fraction is not None:
            out["mean_candidate_fraction"] = float(self.mean_candidate_fraction)
        if self.fairness is not None:
            out["fairness"] = float(self.fairness)
        if self.final_devices is not None:
            out["n_membership_events"] = float(self.n_membership_events)
            out["final_devices"] = float(self.final_devices)
            out["n_autoscale_admits"] = float(self.n_autoscale_admits)
            out["n_autoscale_retires"] = float(self.n_autoscale_retires)
        return {k: v for k, v in out.items() if math.isfinite(v)}

    def as_dict(self) -> dict:
        """JSON-safe summary."""
        out = self.report.as_dict()
        out.update({
            "mode": self.mode,
            "per_device": {str(d): n for d, n in sorted(self.per_device.items())},
            "max_queue_depth": self.max_queue_depth,
            "k": self.k,
            "scoring": self.scoring,
            "scoring_batches": dict(sorted(self.scoring_batches.items())),
        })
        if self.recall_at_k is not None:
            out["recall_at_k"] = self.recall_at_k
        if self.mean_candidate_fraction is not None:
            out["mean_candidate_fraction"] = self.mean_candidate_fraction
        if self.tenants:
            out["tenants"] = {
                str(t): dict(stats) for t, stats in sorted(self.tenants.items())
            }
            out["per_class"] = {
                str(c): dict(stats)
                for c, stats in sorted(self.per_class.items())
            }
            if self.fairness is not None:
                out["fairness"] = self.fairness
            if self.shed_by_tenant:
                out["shed_by_tenant"] = {
                    str(t): n for t, n in sorted(self.shed_by_tenant.items())
                }
        if self.swaps or self.n_shed:
            out.update({
                "swaps": list(self.swaps),
                "n_swaps": self.n_swaps,
                "n_rollbacks": self.n_rollbacks,
                "n_swap_failures": self.n_swap_failures,
                "versions_served": {
                    str(v): n for v, n in sorted(self.versions_served.items())
                },
                "mis_versioned": self.mis_versioned,
                "active_version": self.active_version,
            })
        if self.final_devices is not None:
            out["membership"] = {
                "events": list(self.membership_events),
                "n_events": self.n_membership_events,
                "final_devices": self.final_devices,
                "n_autoscale_admits": self.n_autoscale_admits,
                "n_autoscale_retires": self.n_autoscale_retires,
            }
        return out

    @classmethod
    def from_run(cls, run: ServeRun, *, multi_tenant: bool) -> "ServeResult":
        """Fold a finished run into its result (latency report + accounts).

        ``multi_tenant`` adds the per-tenant / per-class breakdown (the
        caller tagged the request stream).
        """
        cfg, scheduler, membership = run.config, run.scheduler, run.membership
        requests = run.requests
        served = np.flatnonzero(requests.shed == 0)
        t_done = requests.done[served]
        unserved = served[np.isnan(t_done)]
        if unserved.size:
            raise ServeError(
                f"{unserved.size} requests never completed "
                f"(first: {unserved[:5].tolist()}) — worker wakeup logic broke"
            )
        if not served.size:
            raise ServeError(
                "admission control shed every request; raise max_queue_depth"
            )
        # Column math only: no per-request Python in the report path.
        t_arr = requests.arrival[served]
        t_disp = requests.dispatch[served]
        latencies = t_done - t_arr
        makespan = float(t_done.max() - t_arr.min())
        tenant_stats, class_stats, fairness = {}, {}, None
        if multi_tenant:
            tenant_stats, class_stats, fairness = _tenant_breakdown(
                cfg, scheduler, requests, served, latencies, makespan
            )
        use_lsh = cfg.scoring == "lsh"
        report = LatencyReport(
            n_requests=served.size,
            makespan_s=makespan,
            latencies_s=latencies,
            queue_delays_s=t_disp - t_arr,
            batch_sizes=run.batch_sizes,
            n_shed=scheduler.n_shed,
            shed_by_tenant=dict(scheduler.shed_by_tenant),
            meta={"mode": cfg.mode, "scoring": cfg.scoring, "use_lsh": use_lsh},
        )
        elastic = membership is not None
        return cls(
            mode=cfg.mode,
            requests=run.requests,
            labels=run.labels,
            report=report,
            per_device=run.per_device,
            max_queue_depth=scheduler.max_depth,
            recall_at_k=None,
            k=run.k,
            scoring=cfg.scoring,
            scoring_batches=run.scoring_batches,
            mean_candidate_fraction=(
                float(np.mean(run.lsh_fractions)) if run.lsh_fractions else None
            ),
            n_shed=scheduler.n_shed,
            tenants=tenant_stats,
            per_class=class_stats,
            fairness=fairness,
            shed_by_tenant=dict(scheduler.shed_by_tenant),
            swaps=run.swap_records,
            n_swaps=run.n_swaps,
            n_rollbacks=run.n_rollbacks,
            n_swap_failures=run.n_swap_failures,
            versions_served=run.versions_served,
            mis_versioned=int(np.count_nonzero(
                requests.served_version[served]
                != np.array(requests.version)[served]
            )),
            active_version=run.active_version,
            membership_events=(
                [asdict(e) for e in membership.applied_events] if elastic else []
            ),
            n_membership_events=membership.n_events if elastic else 0,
            final_devices=membership.n_active if elastic else None,
            n_autoscale_admits=run.n_autoscale_admits,
            n_autoscale_retires=run.n_autoscale_retires,
        )


def _tenant_breakdown(cfg, scheduler, requests, served, latencies, makespan):
    """Per-tenant stats, per-class stats and the fairness ratio."""
    # The tenants with a served request, in sorted-name (= code) order.
    codes = np.array(requests.tenant)[served]
    present = np.unique(codes)
    served_classes = np.array(requests.priority, dtype=np.int64)[served]
    tenant_stats = per_tenant_stats(
        [requests.tenant_names[c] for c in present.tolist()],
        np.searchsorted(present, codes),
        latencies,
        makespan_s=makespan,
        shed_by_tenant=scheduler.shed_by_tenant,
        classes=served_classes,
    )
    class_p99 = grouped_nearest_rank_percentiles(
        served_classes, latencies, (99.0,), cfg.priority_classes
    )
    class_counts = np.bincount(served_classes, minlength=cfg.priority_classes)
    class_stats: Dict[int, dict] = {}
    for c in range(cfg.priority_classes):
        n_class = int(class_counts[c])
        n_class_shed = int(scheduler.shed_by_class.get(c, 0))
        if n_class == 0 and n_class_shed == 0:
            continue
        class_stats[c] = {
            "completed": n_class,
            "latency_p99_ms": float(class_p99[c, 0]) * 1e3,
            "n_shed": n_class_shed,
            "slo_ms": cfg.class_target_latency_s(c) * 1e3,
        }
    return tenant_stats, class_stats, fairness_ratio(tenant_stats)
