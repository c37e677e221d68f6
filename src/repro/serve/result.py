"""What one serving run produced: its latencies and its accounts.

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
    nearest_rank_percentile,
    nearest_rank_percentiles,
    tenant_accounts,
)
from repro.serve.queue import RunRequests
from repro.serve.run import ServeRun

__all__ = ["ServeResult"]


def _tally(values: np.ndarray) -> Dict[int, int]:
    """Int value -> its occurrences in ``values``, by value (a bincount:
    ``np.unique`` would import ``numpy.ma``)."""
    if not values.size:
        return {}
    base = int(values.min())
    counts = np.bincount(values - base)
    return {base + int(v): int(counts[v]) for v in np.flatnonzero(counts)}


@dataclass
class ServeResult:
    """Everything one serving run produced.

    **Shed semantics, pinned:** ``latencies_s`` holds *completed* requests
    only. A shed request never completes, never contributes a latency, and
    therefore never appears in any percentile or mean — it is accounted
    *only* through ``n_shed`` and ``shed_by_tenant``. The offered load of a
    run is ``len(latencies_s) + n_shed``.
    """

    mode: str
    #: Every request's row, arrival, stamps, tenant, class and shed code.
    requests: RunRequests
    #: ``(n_requests, k)`` int32 top-k label ids by ``req_id``; -1 if shed.
    labels: np.ndarray
    #: Completed requests' arrival-to-response and queueing seconds.
    latencies_s: np.ndarray
    queue_delays_s: np.ndarray
    #: First arrival to last response of the completed requests (sim s).
    makespan_s: float
    #: Dispatched batch sizes, in dispatch order.
    batch_sizes: List[int]
    #: Device id -> requests served there.
    per_device: Dict[int, int] = field(default_factory=dict)
    #: Queue high-water mark over the run.
    max_queue_depth: int = 0
    k: int = 5
    #: The configured scoring policy ("exact", "lsh", or "auto").
    scoring: str = "exact"
    #: Scoring path -> batches that ran it (auto splits across both).
    scoring_batches: Dict[str, int] = field(default_factory=dict)
    #: Mean candidate fraction over the LSH-scored batches (None if none).
    mean_candidate_fraction: Optional[float] = None
    #: Requests shed by admission control (never completed).
    n_shed: int = 0
    #: Tenant -> {completed, throughput_rps, p50/p95/p99 ms, n_shed}; a
    #: tenant with no completions has no throughput or latency keys.
    tenants: Dict[str, dict] = field(default_factory=dict)
    #: Priority class -> {completed, p99 ms, n_shed, slo_ms}.
    per_class: Dict[int, dict] = field(default_factory=dict)
    #: Max/min tenant throughput (None for one tenant, inf if one starved).
    fairness: Optional[float] = None
    #: Tenant -> requests shed (sums to ``n_shed``).
    shed_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: Served from a store: the swap rows below are reported, swap or not.
    hot_swap: bool = False
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

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return len(self.latencies_s) / self.makespan_s

    def percentile(self, p: float) -> float:
        """Nearest-rank latency percentile in seconds (completed only)."""
        return nearest_rank_percentile(self.latencies_s, p)

    def latency_ms(self) -> List[float]:
        """p50 / p95 / p99 latency in milliseconds, from one sort."""
        return [
            float(p) * 1e3
            for p in nearest_rank_percentiles(self.latencies_s, (50, 95, 99))
        ]

    @property
    def mean_batch_size(self) -> float:
        """Average dispatched batch size (1.0 for sequential serving)."""
        if not self.batch_sizes:
            return 0.0
        return float(np.mean(self.batch_sizes))

    def headline_metrics(self) -> dict:
        """Flat finite-float metrics for the cross-run index.

        The serving counterpart of
        :func:`repro.telemetry.analyze.headline_metrics`: stable names,
        every value a finite float, optional facets (candidate fraction,
        fairness, membership) present only when the run produced them.
        """
        p50, p95, p99 = self.latency_ms()
        fields = ["max_queue_depth", "n_shed", "n_swaps", "n_rollbacks",
                  "n_swap_failures", "mis_versioned",
                  "mean_candidate_fraction", "fairness"]
        if self.final_devices is not None:
            fields += ["n_membership_events", "final_devices",
                       "n_autoscale_admits", "n_autoscale_retires"]
        out = {
            "n_requests": len(self.latencies_s),
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": p50, "latency_p95_ms": p95, "latency_p99_ms": p99,
            "mean_batch_size": self.mean_batch_size,
            **{name: getattr(self, name) for name in fields},
        }
        return {k: float(v) for k, v in out.items()
                if v is not None and math.isfinite(v)}

    def as_dict(self) -> dict:
        """Strict-JSON-safe summary: the registry's ``report.json`` layout
        (a starved run's infinite ``fairness`` is written as ``null``)."""
        p50, p95, p99 = self.latency_ms()
        out = {
            "n_requests": len(self.latencies_s),
            "makespan_s": float(self.makespan_s),
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": p50,
            "latency_p95_ms": p95,
            "latency_p99_ms": p99,
            "latency_mean_ms": float(np.mean(self.latencies_s)) * 1e3,
            "queue_p95_ms": (
                nearest_rank_percentile(self.queue_delays_s, 95) * 1e3
            ),
            "n_batches": len(self.batch_sizes),
            "mean_batch_size": self.mean_batch_size,
            "n_shed": self.n_shed,
            "mode": self.mode,
            "scoring": self.scoring,
            "use_lsh": self.scoring == "lsh",
        }
        if self.shed_by_tenant:
            out["shed_by_tenant"] = {
                str(t): n for t, n in sorted(self.shed_by_tenant.items())
            }
        out.update({
            "per_device": {str(d): n for d, n in sorted(self.per_device.items())},
            "max_queue_depth": self.max_queue_depth,
            "k": self.k,
            "scoring_batches": dict(sorted(self.scoring_batches.items())),
        })
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
                out["fairness"] = (
                    self.fairness if math.isfinite(self.fairness) else None
                )
        if self.hot_swap:
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
        """Fold a finished run into its result (latencies + accounts).

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
        n_shed = requests.arrival.size - served.size
        tenants, per_class, fairness = {}, {}, None
        if multi_tenant:
            tenants, per_class, fairness = tenant_accounts(
                requests, latencies, makespan
            )
            for c, row in per_class.items():
                row["slo_ms"] = cfg.class_target_latency_s(c) * 1e3
            shed_by_tenant = {
                name: row["n_shed"] for name, row in tenants.items()
                if row["n_shed"]
            }
        else:  # one tenant, the default
            shed_by_tenant = {requests.tenant_names[0]: n_shed} if n_shed else {}
        elastic = membership is not None
        return cls(
            mode=cfg.mode,
            requests=run.requests,
            labels=run.labels,
            latencies_s=latencies,
            queue_delays_s=t_disp - t_arr,
            makespan_s=makespan,
            batch_sizes=run.batch_sizes,
            # Every device a worker ran on, an idle one with 0.
            per_device={**dict.fromkeys(sorted(run.worker_ids), 0),
                        **_tally(requests.device[served])},
            max_queue_depth=scheduler.max_depth,
            k=run.k,
            scoring=cfg.scoring,
            scoring_batches=run.scoring_batches,
            mean_candidate_fraction=(
                float(np.mean(run.lsh_fractions)) if run.lsh_fractions else None
            ),
            n_shed=n_shed,
            tenants=tenants,
            per_class=per_class,
            fairness=fairness,
            shed_by_tenant=shed_by_tenant,
            hot_swap=run.hot_swap,
            swaps=run.swap_records,
            n_swaps=run.n_swaps,
            n_rollbacks=run.n_rollbacks,
            n_swap_failures=run.n_swap_failures,
            versions_served=_tally(requests.served_version[served]),
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
