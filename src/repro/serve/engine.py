"""The sim-clock serving engine: the front door of one serving run.

One :class:`ServingEngine` run replays an open-loop arrival schedule
against a snapshot on the simulated heterogeneous server.
:meth:`ServingEngine.serve` validates the request stream, builds the run's
shared state (:class:`~repro.serve.run.ServeRun`), starts the sim
processes **in a fixed order** — one worker per GPU (:mod:`repro.serve.run`:
cohort admission and the dispatch protocol), then the swap manager when
a store is attached (:mod:`repro.serve.swap`, the hot-swap protocol) and
the membership manager when the cluster is elastic
(:mod:`repro.serve.autoscale`) — runs the simulation dry, and folds the run
into a :class:`~repro.serve.result.ServeResult`. Same-instant events fire
in scheduling order, which begins with that start order, so it is part of
the byte-determinism contract.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gpu.cluster import MultiGPUServer
from repro.perf.gather import CSR, as_csr
from repro.serve.config import SCORING_MODES, SERVE_MODES, ServingConfig
from repro.serve.predictor import Predictor
from repro.serve.queue import RunRequests
from repro.serve.result import ServeResult
from repro.serve.run import ServeRun
from repro.serve.store import SnapshotStore
from repro.telemetry.core import NULL, Telemetry
from repro.telemetry.events import SPAN_RUN

__all__ = ["ServingEngine", "SERVE_MODES", "SCORING_MODES"]

#: Queries probed (retrieval only) to seed the candidate-fraction estimate
#: when ``auto`` serving starts with no prior LSH observations.
_CALIBRATION_ROWS = 64


def _aligned(values, n_requests: int, what: str, dtype=None) -> np.ndarray:
    """``values`` as an array holding exactly one entry per arrival."""
    values = np.asarray(values, dtype=dtype)
    if values.size != n_requests:
        raise ConfigurationError(
            f"{values.size} {what} for {n_requests} arrivals"
        )
    return values


def _request_stream(
    cfg: ServingConfig, n_rows: int, arrival_times, row_indices, tenants,
    priority_classes,
) -> RunRequests:
    """Validate the schedule; the run's request table."""
    arrival_times = np.asarray(arrival_times, dtype=np.float64)
    n_requests = arrival_times.size
    if n_requests == 0:
        raise ConfigurationError("serve() needs at least one arrival")
    if np.any(np.diff(arrival_times) < 0):
        raise ConfigurationError("arrival_times must be non-decreasing")
    if row_indices is None:
        row_indices = np.arange(n_requests) % n_rows
    else:
        row_indices = _aligned(row_indices, n_requests, "row indices")
        if row_indices.min() < 0 or row_indices.max() >= n_rows:
            raise ConfigurationError("row index outside the query matrix")
    if tenants is not None:
        tenants = list(map(
            str, _aligned(tenants, n_requests, "tenants", object).tolist()
        ))
    if priority_classes is not None:
        priority_classes = _aligned(
            priority_classes, n_requests, "priority classes", np.int64
        )
    return RunRequests(
        np.asarray(row_indices, dtype=np.int64), arrival_times, tenants,
        priority_classes, cfg.priority_classes,
    )


def _check_membership(membership, server: MultiGPUServer) -> None:
    """``membership`` must be a ClusterMembership over this ``server``."""
    from repro.elastic.membership import ClusterMembership

    if not isinstance(membership, ClusterMembership):
        raise ConfigurationError(
            f"membership must be a ClusterMembership, "
            f"got {type(membership).__name__}"
        )
    if membership.server is not server:
        raise ConfigurationError(
            "membership is bound to a different server than this engine"
        )


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
        self.config = config = ServingConfig.resolve(config, options)
        self.predictor = predictor
        self.server = server
        self.store = store
        self.base_version = int(base_version)
        self.mode = config.mode
        self.scoring = config.scoring
        #: True only for fixed LSH scoring (recorded in run metadata).
        self.use_lsh = config.scoring == "lsh"
        self.telemetry: Telemetry = telemetry if telemetry is not None else NULL

    def serve(
        self,
        X_queries: CSR,
        arrival_times: np.ndarray,
        *,
        k: int = 5,
        row_indices: Optional[np.ndarray] = None,
        canary_labels: Optional[CSR] = None,
        tenants: Optional[np.ndarray] = None,
        priority_classes: Optional[np.ndarray] = None,
        membership=None,
    ) -> ServeResult:
        """Replay ``arrival_times`` over ``X_queries``; return the result.

        ``row_indices`` (default: round-robin over the query matrix) maps
        request *i* to a row of ``X_queries``. Numerics run on the host,
        each top-k once per (query row, version, path), a block of batches
        at a time (:mod:`repro.serve.run`); the simulated clock advances by the cost model's per-batch time
        for whichever scoring path the policy picked. ``result.labels[i]``
        is request *i*'s top ``k`` ids, ``1 <= k <= n_labels`` (-1: shed).

        ``tenants`` / ``priority_classes`` (aligned with arrivals) tag each
        request for the scheduler; defaults are one tenant, class 0 — the
        single-tenant degenerate case, which dispatches in plain FIFO
        order. Classes must be in ``[0, config.priority_classes)``.

        ``canary_labels`` (sparse, aligned row-for-row with ``X_queries``)
        arms the hot-swap recall canary: after each swap commits, labeled
        recall@k of the incoming version is compared against the outgoing
        one on the probe block, and a drop beyond
        :data:`~repro.serve.swap.CANARY_RECALL_DROP` triggers rollback.
        Without labels the recall canary is skipped (the latency canary
        still applies).

        ``membership`` (a
        :class:`~repro.elastic.membership.ClusterMembership` over *this*
        engine's server) turns the cluster elastic: lifecycle events from
        its timeline — and, with ``config.autoscale``, queue-depth
        admit/retire decisions — are applied between batches by a
        membership-manager process. The result gains
        ``membership_events`` / ``final_devices`` and their headline
        metrics.
        """
        k = int(k)
        n_labels = self.predictor.arch.n_labels
        if not 1 <= k <= n_labels:
            raise ConfigurationError(
                f"k must be in [1, {n_labels}] (the model's labels), got {k}"
            )
        if membership is not None:
            _check_membership(membership, self.server)
        self.predictor.check_query(X_queries)  # once, not per batch
        X_queries = as_csr(X_queries)
        requests = _request_stream(
            self.config, X_queries.shape[0], arrival_times, row_indices,
            tenants, priority_classes,
        )
        if canary_labels is not None:
            labels = as_csr(canary_labels)
            if labels is None or labels.shape[0] != X_queries.shape[0]:
                raise ConfigurationError(
                    f"canary_labels must be a sparse matrix with one row "
                    f"per query ({X_queries.shape[0]})"
                )
            canary_labels = labels
        if self.scoring in ("lsh", "auto"):
            if self.predictor.observed_candidate_fraction() is None:
                # Seed the crossover signal deterministically from the head
                # of the query pool (retrieval only, which builds the LSH
                # index on first use — no scoring work).
                self.predictor.calibrate_candidate_fraction(
                    X_queries,
                    max_rows=min(_CALIBRATION_ROWS, X_queries.shape[0]),
                )
        run = ServeRun(
            self, X_queries, requests, k=k,
            canary_labels=canary_labels, membership=membership,
        )
        n_requests = requests.arrival.size
        env, tel = run.env, self.telemetry
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
                run.spawn_workers()
                if self.store is not None:
                    from repro.serve.swap import swap_manager

                    env.process(
                        swap_manager(run, self.store), name="serve-swap"
                    )
                if membership is not None:
                    from repro.serve.autoscale import membership_manager

                    env.process(
                        membership_manager(run, membership),
                        name="serve-membership",
                    )
                env.run()
                # The rows still owed labels; inside the attached
                # window so the kernel profile counts this block too.
                run.flush()
            tel.record_requests(requests)
        finally:
            tel.detach()
        return ServeResult.from_run(
            run,
            multi_tenant=tenants is not None or priority_classes is not None,
        )
