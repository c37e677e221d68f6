"""Serving subsystem: snapshots + adaptive-batched sparse inference.

Closes the train → deploy loop of the reproduction: any registry trainer
can persist its final model as a versioned snapshot
(:mod:`repro.serve.snapshot`) — or *publish* a stream of them into a
:class:`~repro.serve.store.SnapshotStore` — and
:class:`~repro.serve.engine.ServingEngine` replays an open-loop request
stream (:mod:`repro.serve.loadgen`) against it on the simulated
heterogeneous server: scheduling tenants through priority tiers +
weighted-fair queueing with admission control, coalescing queries into
per-class adaptive micro-batches (:mod:`repro.serve.queue`), scoring them
through the exact or LSH-accelerated top-k path
(:mod:`repro.serve.predictor`), and hot-swapping newly published versions
mid-traffic with per-request model pinning and canary-guarded rollback.
:class:`~repro.serve.config.ServingConfig` is the single validated option
surface, fronted by ``repro.api.make_engine``.
"""

from repro.serve.config import SCORING_MODES, SERVE_MODES, ServingConfig
from repro.serve.engine import ServingEngine
from repro.serve.loadgen import (
    LatencyReport,
    LoadSpec,
    TenantLoad,
    fairness_ratio,
    generate_arrivals,
    generate_multi_tenant_arrivals,
    grouped_nearest_rank_percentiles,
    nearest_rank_percentile,
    nearest_rank_percentiles,
    per_tenant_stats,
    sample_query_rows,
)
from repro.serve.predictor import Predictor
from repro.serve.queue import AdaptiveBatchSizer, Request, TenantScheduler
from repro.serve.result import ServeResult
from repro.serve.snapshot import SNAPSHOT_FORMAT, SNAPSHOT_VERSION, ModelSnapshot
from repro.serve.store import STORE_FORMAT, STORE_VERSION, SnapshotStore, StoreEntry

__all__ = [
    "ModelSnapshot",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotStore",
    "StoreEntry",
    "STORE_FORMAT",
    "STORE_VERSION",
    "Predictor",
    "ServingEngine",
    "ServingConfig",
    "ServeResult",
    "SERVE_MODES",
    "SCORING_MODES",
    "AdaptiveBatchSizer",
    "Request",
    "TenantScheduler",
    "LoadSpec",
    "TenantLoad",
    "LatencyReport",
    "generate_arrivals",
    "generate_multi_tenant_arrivals",
    "sample_query_rows",
    "nearest_rank_percentile",
    "nearest_rank_percentiles",
    "grouped_nearest_rank_percentiles",
    "per_tenant_stats",
    "fairness_ratio",
]
