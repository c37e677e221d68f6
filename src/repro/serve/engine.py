"""The sim-clock serving engine: request loop, dispatch, and hot-swap.

One :class:`ServingEngine` run replays an open-loop arrival schedule
against a snapshot on the simulated heterogeneous server:

- a **source process** enqueues each request — tagged with its tenant and
  priority class — at its arrival time, or sheds it when the
  :class:`~repro.serve.queue.TenantScheduler`'s admission control rejects
  or displaces it (lowest-priority work first, per-tenant shed
  accounting), and wakes any idle device worker;
- one **worker process per GPU** asks the scheduler for the next batch:
  strict priority across classes, weighted-fair deficit-round-robin
  across tenants within a class, up to ``min(cap, class depth)`` requests
  where ``cap`` comes from that *(device, class)* pair's
  :class:`~repro.serve.queue.AdaptiveBatchSizer` — each priority class
  drives its own sizer against its own SLO (``class_slo_ms``) — or a
  fixed size in ``sequential`` mode. The worker runs the real top-k
  numerics on the host, charges the simulated clock with the cost model's
  batch time for *this* device at *this* moment (speed profiles keep
  heterogeneity live during serving), stamps completion on every request
  in the batch, and feeds busy time back to the scheduler's utilization
  estimate (the graded ``admission_utilization`` shed gate).

Orthogonal to the batching mode, ``scoring`` selects the ranking path per
batch: ``"exact"`` (dense top-k over all ``L`` labels), ``"lsh"`` (the
batched multi-probe candidate pipeline), or ``"auto"`` — the crossover
policy. ``auto`` asks the device's cost model to price both paths
(:meth:`~repro.gpu.cost.GpuCostModel.inference_time` vs
:meth:`~repro.gpu.cost.GpuCostModel.lsh_inference_time` at the
predictor's *observed* candidate fraction) and runs whichever is cheaper,
charging the simulated clock with the chosen path's modeled time.

**Continuous learning.** Given a :class:`~repro.serve.store.SnapshotStore`,
a driver-level **swap manager** process closes the train → serve loop
under live traffic:

1. *Poll* — between batches it polls the store for versions newer than the
   one serving (``swap_check_every_s`` cadence, publish times on the sim
   clock, so a concurrently-trained schedule replays mid-serve).
2. *Pinning* — every request is admitted under the version active at its
   arrival and carries that pin; :meth:`TenantScheduler.pop_batch` stops at
   version boundaries, so an in-flight batch never mixes weights, and a
   swap never invalidates an admitted request.
3. *Warming* — the new snapshot is loaded + validated (a corrupt checksum
   or manifest skew raises :class:`~repro.exceptions.SnapshotError`, is
   counted as a ``swap.failed`` instant, and the prior version keeps
   serving), then staged off the dispatch path: model transfer plus
   :meth:`Predictor.rebuild_lsh`'s re-index + ``W_out.T`` re-cache, priced
   by :meth:`~repro.gpu.cost.GpuCostModel.lsh_rebuild_time` inside a
   driver-level ``serve.swap`` span. Devices keep dispatching the old
   version the whole time.
4. *Commit* — an atomic pointer flip between batches: new arrivals now pin
   to the new version (``swap.commit`` instant, ``swaps`` counter).
5. *Canary + rollback* — post-commit, the new and previous predictors are
   scored on a deterministic labeled probe block (host-side, zero
   simulated time); a recall@k drop beyond ``canary_recall_drop`` — or a
   windowed post-swap p99 beyond ``canary_latency_factor ×`` the pre-swap
   p99 — rolls the active pointer back, quarantines the bad version
   (``swap.rollback`` instant, ``rollbacks`` counter), and keeps serving
   the prior weights. The
   previous predictor is guarded from retirement until its canary
   resolves; retired versions free their predictors once their last pinned
   request completes.

**Elastic membership.** Given a
:class:`~repro.elastic.membership.ClusterMembership` (``membership=`` at
serve time), a driver-level **membership manager** process polls the
lifecycle timeline every ``membership_check_every_s`` sim seconds and
applies events between batches:

- ``throttle``/``recover`` change a device's dynamic speed scale — the
  next batch it prices is slower/faster, nothing else moves;
- ``fail``/``leave`` drop the device from the active set: its worker
  finishes the in-flight batch (sim timeouts are uninterruptible — the
  retirement drain), then parks; queued work re-routes to the survivors
  on their next pull;
- ``join`` provisions a fresh device (or re-admits a parked one) and the
  manager spawns a worker for it immediately — serving has no warm-start
  barrier, so joins take effect at the next dispatch.

With ``autoscale=True`` the same manager runs a queue-depth autoscaler
through the same membership object: depth at or above
``autoscale_high_depth × (1 + admitted)`` admits one device
(``membership.admit``, source ``"autoscaler"``); depth at or below
``autoscale_low_depth`` retires the most recent autoscaler admission
(never a baseline device, never below ``autoscale_min_devices``). Every
transition lands in telemetry as a ``membership.event`` instant plus the
``active_devices`` gauge, so ``repro analyze`` can attribute latency
spikes to the membership event that caused them.

Telemetry mirrors training: a ``serve.batch`` span per dispatched batch
(device compute, feeds the idle accountant), a retroactive
``serve.request`` span per request spanning enqueue → response, and the
driver-level ``serve.swap`` spans + swap/rollback counters that let
``repro analyze`` attribute any latency blip to the swap that caused it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError, ServeError, SnapshotError
from repro.gpu.cluster import MultiGPUServer
from repro.serve.config import SCORING_MODES, SERVE_MODES, ServingConfig
from repro.serve.loadgen import (
    LatencyReport,
    fairness_ratio,
    grouped_nearest_rank_percentiles,
    nearest_rank_percentile,
    per_tenant_stats,
)
from repro.serve.predictor import Predictor
from repro.serve.queue import (
    DEFAULT_TENANT,
    AdaptiveBatchSizer,
    Request,
    TenantScheduler,
)
from repro.serve.store import SnapshotStore
from repro.sim.environment import Environment
from repro.telemetry import NULL, Telemetry
from repro.telemetry.events import (
    COUNTER_ROLLBACKS,
    COUNTER_SHED,
    COUNTER_SWAP_FAILURES,
    COUNTER_SWAPS,
    EVENT_SHED,
    EVENT_SWAP_COMMIT,
    EVENT_SWAP_FAILED,
    EVENT_SWAP_ROLLBACK,
    GAUGE_BATCH_SIZE,
    SPAN_RUN,
    SPAN_SERVE_BATCH,
    SPAN_SERVE_REQUEST,
    SPAN_SERVE_SWAP,
)

__all__ = ["ServingEngine", "ServeResult", "SERVE_MODES", "SCORING_MODES"]

#: Queries probed (retrieval only) to seed the candidate-fraction estimate
#: when ``auto`` serving starts with no prior LSH observations.
_CALIBRATION_ROWS = 64


@dataclass
class ServeResult:
    """Everything one serving run produced."""

    mode: str
    requests: List[Request]
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
    #: Max/min weight-normalized tenant throughput (None for one tenant).
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


class ServingEngine:
    """Adaptive-batched sparse inference on the simulated server.

    Options arrive either as a prebuilt :class:`ServingConfig` (``config=``)
    or as keyword options validated through
    :meth:`ServingConfig.from_options` — the same unknown-option
    layer ``repro.api.make_engine`` and the CLI use. Pass ``store=`` (and
    the ``base_version`` the constructor predictor corresponds to) to
    enable hot-swapping of newly published versions mid-run.
    """

    def __init__(
        self,
        predictor: Predictor,
        server: MultiGPUServer,
        *,
        config: Optional[ServingConfig] = None,
        store: Optional[SnapshotStore] = None,
        base_version: int = 0,
        telemetry: Optional[Telemetry] = None,
        **options,
    ) -> None:
        if config is None:
            config = ServingConfig.from_options(**options)
        elif options:
            raise ConfigurationError(
                f"pass either config= or keyword options, not both "
                f"(got {sorted(options)})"
            )
        elif not isinstance(config, ServingConfig):
            raise ConfigurationError(
                f"config must be a ServingConfig, got {type(config).__name__}"
            )
        self.config = config
        self.predictor = predictor
        self.server = server
        self.store = store
        self.base_version = int(base_version)
        # Mirrored views of the config (the stable attribute surface).
        self.mode = config.mode
        self.target_latency_s = config.target_latency_s
        self.b_min = config.b_min
        self.b_max = config.b_max
        self.beta = config.beta
        self.fixed_batch_size = config.fixed_batch_size
        self.scoring = config.scoring
        #: True only for fixed LSH scoring (recorded in run metadata).
        self.use_lsh = config.scoring == "lsh"
        self.telemetry: Telemetry = telemetry if telemetry is not None else NULL

    # -- the run -------------------------------------------------------------
    def serve(
        self,
        X_queries: sp.csr_matrix,
        arrival_times: np.ndarray,
        *,
        k: Optional[int] = None,
        row_indices: Optional[np.ndarray] = None,
        canary_labels: Optional[sp.csr_matrix] = None,
        tenants: Optional[np.ndarray] = None,
        priority_classes: Optional[np.ndarray] = None,
        membership=None,
    ) -> ServeResult:
        """Replay ``arrival_times`` over ``X_queries``; return the result.

        ``row_indices`` (default: round-robin over the query matrix) maps
        request *i* to a row of ``X_queries``. Numerics run on the host;
        the simulated clock advances by the cost model's per-batch time
        for whichever scoring path the policy picked. ``k`` defaults to the
        config's.

        ``tenants`` / ``priority_classes`` (aligned with arrivals) tag each
        request for the scheduler; defaults are one tenant, class 0 — the
        single-tenant degenerate case, which dispatches in plain FIFO
        order. Classes must be in ``[0, config.priority_classes)``.

        ``canary_labels`` (sparse, aligned row-for-row with ``X_queries``)
        arms the hot-swap recall canary: after each swap commits, labeled
        recall@k of the incoming version is compared against the outgoing
        one on the probe block, and a drop beyond
        ``config.canary_recall_drop`` triggers rollback. Without labels the
        recall canary is skipped (the latency canary still applies).

        ``membership`` (a
        :class:`~repro.elastic.membership.ClusterMembership` over *this*
        engine's server) turns the cluster elastic: lifecycle events from
        its timeline — and, with ``config.autoscale``, queue-depth
        admit/retire decisions — are applied between batches by a
        membership-manager process. The result gains
        ``membership_events`` / ``final_devices`` and their headline
        metrics.
        """
        cfg = self.config
        if membership is not None:
            from repro.elastic.membership import ClusterMembership

            if not isinstance(membership, ClusterMembership):
                raise ConfigurationError(
                    f"membership must be a ClusterMembership, "
                    f"got {type(membership).__name__}"
                )
            if membership.server is not self.server:
                raise ConfigurationError(
                    "membership is bound to a different server than this engine"
                )
        k = cfg.k if k is None else int(k)
        arrival_times = np.asarray(arrival_times, dtype=np.float64)
        n_requests = arrival_times.size
        if n_requests == 0:
            raise ConfigurationError("serve() needs at least one arrival")
        if np.any(np.diff(arrival_times) < 0):
            raise ConfigurationError("arrival_times must be non-decreasing")
        if row_indices is None:
            row_indices = np.arange(n_requests) % X_queries.shape[0]
        else:
            row_indices = np.asarray(row_indices)
            if row_indices.size != n_requests:
                raise ConfigurationError(
                    f"{row_indices.size} row indices for {n_requests} arrivals"
                )
            if row_indices.size and (
                row_indices.min() < 0 or row_indices.max() >= X_queries.shape[0]
            ):
                raise ConfigurationError("row index outside the query matrix")
        if canary_labels is not None:
            canary_labels = sp.csr_matrix(canary_labels)
            if canary_labels.shape[0] != X_queries.shape[0]:
                raise ConfigurationError(
                    f"canary_labels rows ({canary_labels.shape[0]}) must "
                    f"match X_queries rows ({X_queries.shape[0]})"
                )
        if tenants is None:
            tenant_tags = np.full(n_requests, DEFAULT_TENANT, dtype=object)
        else:
            tenant_tags = np.asarray(tenants, dtype=object)
            if tenant_tags.size != n_requests:
                raise ConfigurationError(
                    f"{tenant_tags.size} tenants for {n_requests} arrivals"
                )
        if priority_classes is None:
            class_tags = np.zeros(n_requests, dtype=np.int64)
        else:
            class_tags = np.asarray(priority_classes, dtype=np.int64)
            if class_tags.size != n_requests:
                raise ConfigurationError(
                    f"{class_tags.size} priority classes for "
                    f"{n_requests} arrivals"
                )
            if class_tags.size and (
                class_tags.min() < 0
                or class_tags.max() >= cfg.priority_classes
            ):
                raise ConfigurationError(
                    f"priority classes must be in "
                    f"[0, {cfg.priority_classes}); "
                    f"got range [{class_tags.min()}, {class_tags.max()}]"
                )
        if self.scoring in ("lsh", "auto") and not self.predictor._lsh_built:
            self.predictor.rebuild_lsh()
        if (
            self.scoring in ("lsh", "auto")
            and self.predictor.observed_candidate_fraction() is None
        ):
            # Seed the crossover signal deterministically from the head of
            # the query pool (retrieval only — no scoring work).
            self.predictor.calibrate_candidate_fraction(
                X_queries, max_rows=min(_CALIBRATION_ROWS, X_queries.shape[0])
            )

        env = Environment()
        tel = self.telemetry
        scheduler = TenantScheduler(
            n_priority_classes=cfg.priority_classes,
            weights=cfg.tenant_weights,
            max_depth=cfg.max_queue_depth,
            admission_utilization=cfg.admission_utilization,
            n_devices=self.server.n_gpus,
            quantum=cfg.wfq_quantum,
        )
        requests = [
            Request(
                req_id=i,
                row=int(row_indices[i]),
                t_arrival=float(t),
                tenant=str(tenant_tags[i]),
                priority_class=int(class_tags[i]),
            )
            for i, t in enumerate(arrival_times)
        ]
        # One sizer per (device, priority class): each class batches
        # against its own SLO on each device's own service-time feedback.
        sizers: Dict[tuple, AdaptiveBatchSizer] = {}

        def _sizer(device: int, priority_class: int) -> AdaptiveBatchSizer:
            key = (device, priority_class)
            sizer = sizers.get(key)
            if sizer is None:
                sizer = sizers[key] = AdaptiveBatchSizer(
                    b_min=self.b_min,
                    b_max=self.b_max,
                    beta=self.beta,
                    target_latency_s=cfg.class_target_latency_s(
                        priority_class
                    ),
                )
            return sizer

        per_device: Dict[int, int] = {g.device_id: 0 for g in self.server.gpus}
        batch_sizes: List[int] = []
        scoring_batches: Dict[str, int] = {}
        lsh_fractions: List[float] = []
        n_labels = self.predictor.arch.n_labels
        state = {"arrivals_done": False, "wakeup": env.event()}

        # -- hot-swap state ---------------------------------------------------
        # All versions with live pins or guard protection stay resident;
        # ``active`` is the version new arrivals are admitted under.
        predictors: Dict[int, Predictor] = {self.base_version: self.predictor}
        active = {"version": self.base_version}
        pins: Dict[int, int] = {self.base_version: 0}
        #: Versions the swap manager is mid-protocol on (rollback targets).
        protected: Set[int] = set()
        quarantined: Set[int] = set()
        versions_served: Dict[int, int] = {}
        swap_records: List[dict] = []
        counters = {"swaps": 0, "rollbacks": 0, "failures": 0}
        #: (t_done, latency) per completion, for the latency canary.
        completed: List[tuple] = []

        def _wake_all() -> None:
            """Fire-and-replace the shared wakeup event (re-arm pattern)."""
            event, state["wakeup"] = state["wakeup"], env.event()
            event.succeed()

        def _retire(version: int) -> None:
            """Free a predictor nothing can reference any more."""
            if (
                version != active["version"]
                and version not in protected
                and pins.get(version, 0) == 0
                and version in predictors
            ):
                del predictors[version]

        def source(env: Environment):
            for request in requests:
                delay = request.t_arrival - env.now
                if delay > 0:
                    yield env.timeout(delay)
                request.version = active["version"]
                shed = scheduler.push(request, now=env.now)
                if not request.shed:
                    pins[request.version] = pins.get(request.version, 0) + 1
                    _wake_all()
                if shed is not None:
                    tel.counter(COUNTER_SHED, 1)
                    tel.instant(
                        EVENT_SHED,
                        tenant=shed.tenant,
                        priority_class=shed.priority_class,
                        reason=shed.shed_reason,
                    )
                    if shed is not request:
                        # A queued request was displaced: release its pin.
                        pins[shed.version] -= 1
                        _retire(shed.version)
            state["arrivals_done"] = True
            _wake_all()
            return None

        def _price_lsh(gpu, pred: Predictor, work, speed: float) -> float:
            frac = pred.observed_candidate_fraction()
            return gpu.cost_model.lsh_inference_time(
                work,
                frac if frac is not None else 1.0,
                n_tables=pred.lsh_tables,
                n_bits=pred.lsh_bits,
                n_probes=pred.lsh_probes,
                speed=speed,
                n_active_gpus=self.server.n_gpus,
            )

        def worker(env: Environment, gpu):
            device = gpu.device_id
            per_device.setdefault(device, 0)
            while True:
                # A retired/failed device parks between batches: the
                # in-flight batch (if any) already completed, queued work
                # re-routes to the survivors, and a later rejoin wakes it.
                if membership is not None and not membership.is_active(device):
                    if _drained():
                        return None
                    yield state["wakeup"]
                    continue
                if scheduler.depth == 0:
                    if state["arrivals_done"]:
                        return None
                    yield state["wakeup"]
                    continue
                batch_class = scheduler.next_class()
                sizer = _sizer(device, batch_class)
                cap = (
                    sizer.cap if self.mode == "adaptive"
                    else self.fixed_batch_size
                )
                batch = scheduler.pop_batch(cap)
                version = batch[0].version
                pred = predictors[version]
                t_dispatch = env.now
                rows = np.array([r.row for r in batch])
                X_batch = X_queries[rows]
                work = pred.workload(X_batch)
                speed = gpu.speed_at(t_dispatch)
                # Pick the scoring path and its modeled cost *before* the
                # numerics run, from this device's cost model at this
                # instant — the crossover decision the ``serve.batch`` span
                # records.
                if self.scoring == "auto":
                    exact_service = gpu.cost_model.inference_time(
                        work, speed=speed, n_active_gpus=self.server.n_gpus
                    )
                    lsh_service = _price_lsh(gpu, pred, work, speed)
                    if lsh_service < exact_service:
                        chosen, service = "lsh", lsh_service
                    else:
                        chosen, service = "exact", exact_service
                elif self.scoring == "lsh":
                    chosen = "lsh"
                    service = _price_lsh(gpu, pred, work, speed)
                else:
                    chosen = "exact"
                    service = gpu.cost_model.inference_time(
                        work, speed=speed, n_active_gpus=self.server.n_gpus
                    )
                # Real numerics on the host via the chosen path and the
                # *pinned* version's weights; simulated time from that
                # path's modeled cost.
                if chosen == "lsh":
                    labels, counts = pred.lsh_stats(X_batch, k)
                    batch_fraction = (
                        float(counts.mean()) / n_labels if counts.size else 0.0
                    )
                    lsh_fractions.append(batch_fraction)
                else:
                    labels = pred.topk(X_batch, k)
                    batch_fraction = None
                span_args = dict(
                    size=len(batch), nnz=int(X_batch.nnz), scoring=chosen,
                    version=version, priority_class=batch_class,
                )
                if batch_fraction is not None:
                    span_args["candidate_fraction"] = batch_fraction
                with tel.span(SPAN_SERVE_BATCH, device=device, **span_args):
                    yield env.timeout(service)
                t_done = env.now
                gpu.record_busy(service)
                scheduler.observe_busy(service)
                scoring_batches[chosen] = scoring_batches.get(chosen, 0) + 1
                for request in batch:
                    request.t_dispatch = t_dispatch
                    request.t_done = t_done
                    request.device = device
                    request.served_version = version
                    completed.append((t_done, t_done - request.t_arrival))
                    tel.record_span(
                        SPAN_SERVE_REQUEST,
                        request.t_arrival,
                        t_done - request.t_arrival,
                        queue_s=t_dispatch - request.t_arrival,
                        batch=len(batch),
                        device_id=device,
                        version=version,
                        tenant=request.tenant,
                        priority_class=request.priority_class,
                    )
                request_labels = np.asarray(labels)
                for j, request in enumerate(batch):
                    request.labels = request_labels[j].tolist()
                per_device[device] += len(batch)
                versions_served[version] = (
                    versions_served.get(version, 0) + len(batch)
                )
                pins[version] -= len(batch)
                _retire(version)
                batch_sizes.append(len(batch))
                if self.mode == "adaptive":
                    new_cap = sizer.observe(len(batch), t_done - t_dispatch)
                    tel.gauge(GAUGE_BATCH_SIZE, new_cap, device=device)

        def _drained() -> bool:
            return state["arrivals_done"] and scheduler.depth == 0

        def _canary_recall(pred: Predictor) -> float:
            """Labeled recall@k of ``pred`` on the deterministic probe
            block (host-side, zero simulated time)."""
            n_probe = min(cfg.canary_queries, X_queries.shape[0])
            top = pred.topk(X_queries[:n_probe], k)
            Y = canary_labels
            scores = []
            for i in range(n_probe):
                true = set(Y.indices[Y.indptr[i]:Y.indptr[i + 1]].tolist())
                if not true:
                    continue
                hits = len(true & set(top[i].tolist()))
                scores.append(hits / min(k, len(true)))
            return float(np.mean(scores)) if scores else 0.0

        def swap_manager(env: Environment, store: SnapshotStore):
            gpu0 = self.server.gpus[0]
            seen = self.base_version
            while not _drained():
                next_version = store.poll(after=seen, now=env.now)
                if next_version is None:
                    yield env.timeout(cfg.swap_check_every_s)
                    continue
                seen = next_version  # never retry a version, even on failure
                prev_version = active["version"]
                prev_pred = predictors[prev_version]
                # -- load + validate (host-side; failures never interrupt
                #    serving — the prior version stays active) --------------
                try:
                    snapshot = store.load(next_version)
                    new_pred = prev_pred.spawn(snapshot)
                except (SnapshotError, ServeError) as exc:
                    counters["failures"] += 1
                    tel.counter(COUNTER_SWAP_FAILURES, 1)
                    tel.instant(
                        EVENT_SWAP_FAILED,
                        version=next_version, error=str(exc),
                    )
                    swap_records.append({
                        "version_to": next_version,
                        "t": env.now,
                        "failed": True,
                        "error": str(exc),
                    })
                    continue
                # -- staged warming, off the dispatch path ------------------
                protected.add(prev_version)
                t_warm_start = env.now
                warm_s = gpu0.cost_model.model_transfer_time(
                    snapshot.state.nbytes
                )
                if self.scoring in ("lsh", "auto"):
                    new_pred.rebuild_lsh()
                    warm_s += gpu0.cost_model.lsh_rebuild_time(
                        n_labels,
                        self.predictor.arch.layer_dims[-2],
                        n_tables=new_pred.lsh_tables,
                        n_bits=new_pred.lsh_bits,
                        n_active_gpus=self.server.n_gpus,
                    )
                with tel.span(
                    SPAN_SERVE_SWAP,
                    version_from=prev_version, version_to=next_version,
                ):
                    yield env.timeout(warm_s)
                # -- atomic commit between batches --------------------------
                predictors[next_version] = new_pred
                pins.setdefault(next_version, 0)
                active["version"] = next_version
                counters["swaps"] += 1
                tel.counter(COUNTER_SWAPS, 1)
                tel.instant(
                    EVENT_SWAP_COMMIT,
                    version=next_version, previous=prev_version,
                    warm_s=warm_s,
                )
                record = {
                    "version_from": prev_version,
                    "version_to": next_version,
                    "t_warm_start": t_warm_start,
                    "t_commit": env.now,
                    "warm_s": warm_s,
                    "rolled_back": False,
                }
                swap_records.append(record)
                t_commit = env.now
                # -- post-swap canaries -------------------------------------
                rollback_reason = None
                if (
                    cfg.canary_recall_drop is not None
                    and canary_labels is not None
                ):
                    prev_recall = _canary_recall(prev_pred)
                    new_recall = _canary_recall(new_pred)
                    record["canary_recall_prev"] = prev_recall
                    record["canary_recall_new"] = new_recall
                    if new_recall < prev_recall - cfg.canary_recall_drop:
                        rollback_reason = (
                            f"canary recall@{k} dropped {prev_recall:.3f} -> "
                            f"{new_recall:.3f} (tolerance "
                            f"{cfg.canary_recall_drop})"
                        )
                if (
                    rollback_reason is None
                    and cfg.canary_latency_factor is not None
                ):
                    pre = [lat for t, lat in completed if t <= t_commit]
                    if len(pre) >= cfg.canary_min_samples:
                        target = len(completed) + cfg.canary_min_samples
                        while len(completed) < target and not _drained():
                            yield env.timeout(cfg.swap_check_every_s)
                        post = [lat for t, lat in completed if t > t_commit]
                        if len(post) >= cfg.canary_min_samples:
                            pre_p99 = nearest_rank_percentile(pre, 99)
                            post_p99 = nearest_rank_percentile(post, 99)
                            if post_p99 > cfg.canary_latency_factor * pre_p99:
                                rollback_reason = (
                                    f"post-swap p99 {post_p99:.6f}s beyond "
                                    f"{cfg.canary_latency_factor}x pre-swap "
                                    f"p99 {pre_p99:.6f}s"
                                )
                if rollback_reason is not None:
                    # Roll the pointer back; already-admitted requests stay
                    # pinned to the bad version (they drain against it —
                    # pinning outranks quarantine), but nothing new admits.
                    active["version"] = prev_version
                    quarantined.add(next_version)
                    record["rolled_back"] = True
                    record["rollback_reason"] = rollback_reason
                    counters["rollbacks"] += 1
                    tel.counter(COUNTER_ROLLBACKS, 1)
                    tel.instant(
                        EVENT_SWAP_ROLLBACK,
                        version=next_version, restored=prev_version,
                        reason=rollback_reason,
                    )
                    protected.discard(prev_version)
                    _retire(next_version)
                else:
                    protected.discard(prev_version)
                    _retire(prev_version)
            return None

        # -- elastic membership ----------------------------------------------
        #: Device ids with a worker process spawned (joins add to it).
        worker_ids: Set[int] = {g.device_id for g in self.server.gpus}
        autoscale_counts = {"admits": 0, "retires": 0}

        def _spawn_new_workers() -> None:
            for gpu in self.server.gpus:
                if gpu.device_id not in worker_ids:
                    worker_ids.add(gpu.device_id)
                    env.process(worker(env, gpu), name=f"serve-{gpu.name}")

        def membership_manager(env: Environment, membership):
            #: Stack of autoscaler-admitted device ids (retire newest first).
            admitted: List[int] = []
            while not _drained():
                applied = membership.poll(env.now)
                if cfg.autoscale:
                    depth = scheduler.depth
                    # Each further admission demands proportionally more
                    # backlog — hysteresis against per-tick flapping.
                    threshold = cfg.autoscale_high_depth * (1 + len(admitted))
                    if depth >= threshold:
                        event = membership.admit(env.now)
                        if event.applied:
                            admitted.append(event.device_id)
                            autoscale_counts["admits"] += 1
                            applied.append(event)
                    elif (
                        depth <= cfg.autoscale_low_depth
                        and admitted
                        and membership.n_active > cfg.autoscale_min_devices
                    ):
                        event = membership.retire(env.now, admitted[-1])
                        if event.applied:
                            admitted.pop()
                            autoscale_counts["retires"] += 1
                            applied.append(event)
                if applied:
                    _spawn_new_workers()
                    scheduler.set_n_devices(max(1, membership.n_active))
                    _wake_all()
                # Sleep until the next timeline event if it lands before
                # the autoscaler cadence — a sub-cadence event must not be
                # slept past (short sims run far below the default 1 ms).
                delay = cfg.membership_check_every_s
                next_t = membership.next_event_t()
                if next_t is not None and next_t > env.now:
                    delay = min(delay, next_t - env.now)
                yield env.timeout(delay)
            # Parked (inactive) workers check _drained() on wake — release
            # them so the run can end.
            _wake_all()
            return None

        tel.attach(
            env,
            algorithm=f"serve-{self.mode}",
            dataset=str(self.predictor.snapshot.meta.get("dataset", "queries")),
            n_devices=self.server.n_gpus,
            mode=self.mode,
            scoring=self.scoring,
            use_lsh=self.use_lsh,
            n_requests=n_requests,
            hot_swap=self.store is not None,
            elastic=membership is not None,
        )
        if membership is not None:
            membership.telemetry = tel
        try:
            with tel.span(SPAN_RUN, mode=self.mode, n_requests=n_requests):
                env.process(source(env), name="serve-source")
                for gpu in self.server.gpus:
                    env.process(worker(env, gpu), name=f"serve-{gpu.name}")
                if self.store is not None:
                    env.process(
                        swap_manager(env, self.store), name="serve-swap"
                    )
                if membership is not None:
                    env.process(
                        membership_manager(env, membership),
                        name="serve-membership",
                    )
                env.run()
        finally:
            tel.detach()

        served = [r for r in requests if not r.shed]
        unserved = [r.req_id for r in served if r.t_done is None]
        if unserved:
            raise ServeError(
                f"{len(unserved)} requests never completed "
                f"(first: {unserved[:5]}) — worker wakeup logic broke"
            )
        if not served:
            raise ServeError(
                "admission control shed every request; raise max_queue_depth"
            )
        mis_versioned = sum(
            1 for r in served if r.served_version != r.version
        )
        # Vectorized accounting: one pass to lift the timestamps out of the
        # request objects, then pure array math (bulk single-sort
        # percentiles) — no per-request Python in the report path.
        n_served = len(served)
        t_arr = np.fromiter((r.t_arrival for r in served), np.float64, n_served)
        t_done = np.fromiter((r.t_done for r in served), np.float64, n_served)
        t_disp = np.fromiter(
            (r.t_dispatch for r in served), np.float64, n_served
        )
        latencies = t_done - t_arr
        queue_delays = t_disp - t_arr
        makespan = float(t_done.max() - t_arr.min())
        multi_tenant = tenants is not None or priority_classes is not None
        tenant_stats: Dict[str, dict] = {}
        class_stats: Dict[int, dict] = {}
        fairness = None
        if multi_tenant:
            served_tenants = np.array(
                [r.tenant for r in served], dtype=object
            )
            served_classes = np.fromiter(
                (r.priority_class for r in served), np.int64, n_served
            )
            tenant_stats = per_tenant_stats(
                served_tenants,
                latencies,
                makespan_s=makespan,
                shed_by_tenant=scheduler.shed_by_tenant,
                classes=served_classes,
            )
            fairness = fairness_ratio(tenant_stats, cfg.tenant_weights)
            class_p99 = grouped_nearest_rank_percentiles(
                served_classes, latencies, (99.0,), cfg.priority_classes
            )
            class_counts = np.bincount(
                served_classes, minlength=cfg.priority_classes
            )
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
        report = LatencyReport(
            n_requests=n_served,
            makespan_s=makespan,
            latencies_s=latencies,
            queue_delays_s=queue_delays,
            batch_sizes=batch_sizes,
            n_shed=scheduler.n_shed,
            shed_by_tenant=dict(scheduler.shed_by_tenant),
            meta={
                "mode": self.mode,
                "scoring": self.scoring,
                "use_lsh": self.use_lsh,
            },
        )
        return ServeResult(
            mode=self.mode,
            requests=requests,
            report=report,
            per_device=per_device,
            max_queue_depth=scheduler.max_depth,
            recall_at_k=None,
            k=k,
            scoring=self.scoring,
            scoring_batches=scoring_batches,
            mean_candidate_fraction=(
                float(np.mean(lsh_fractions)) if lsh_fractions else None
            ),
            n_shed=scheduler.n_shed,
            tenants=tenant_stats,
            per_class=class_stats,
            fairness=fairness,
            shed_by_tenant=dict(scheduler.shed_by_tenant),
            swaps=swap_records,
            n_swaps=counters["swaps"],
            n_rollbacks=counters["rollbacks"],
            n_swap_failures=counters["failures"],
            versions_served=versions_served,
            mis_versioned=mis_versioned,
            active_version=active["version"],
            membership_events=(
                [
                    {
                        "t": e.t,
                        "kind": e.kind,
                        "device_id": e.device_id,
                        "factor": e.factor,
                        "source": e.source,
                        "applied": e.applied,
                        "note": e.note,
                    }
                    for e in membership.applied_events
                ]
                if membership is not None
                else []
            ),
            n_membership_events=(
                membership.n_events if membership is not None else 0
            ),
            final_devices=(
                membership.n_active if membership is not None else None
            ),
            n_autoscale_admits=autoscale_counts["admits"],
            n_autoscale_retires=autoscale_counts["retires"],
        )
