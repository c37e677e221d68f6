"""Serving subsystem: snapshots + adaptive-batched sparse inference.

Closes the train → deploy loop of the reproduction: any registry trainer
can persist its final model as a versioned snapshot
(:mod:`repro.serve.snapshot`) — or *publish* a stream of them into a
:class:`~repro.serve.store.SnapshotStore` — and
:class:`~repro.serve.engine.ServingEngine` replays an open-loop request
stream (:mod:`repro.serve.loadgen`) against it on the simulated
heterogeneous server: scheduling tenants through priority tiers +
round-robin with admission control, coalescing queries into
per-class adaptive micro-batches (:mod:`repro.serve.queue`), scoring them
through the exact or LSH-accelerated top-k path
(:mod:`repro.serve.predictor`), and hot-swapping newly published versions
mid-traffic with per-request model pinning and canary-guarded rollback.
:class:`~repro.serve.config.ServingConfig` is the single validated option
surface, fronted by ``repro.api.make_engine``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": "SCORING_MODES SERVE_MODES ServingConfig",
    "engine": "ServingEngine",
    "loadgen": (
        "LoadSpec TenantLoad fairness_ratio "
        "generate_arrivals generate_multi_tenant_arrivals "
        "grouped_nearest_rank_percentiles nearest_rank_percentile "
        "nearest_rank_percentiles sample_query_rows tenant_accounts"
    ),
    "predictor": "Predictor",
    "queue": "AdaptiveBatchSizer RunRequests TenantScheduler",
    "result": "ServeResult",
    "snapshot": "SNAPSHOT_FORMAT SNAPSHOT_VERSION ModelSnapshot",
    "store": "STORE_FORMAT STORE_VERSION SnapshotStore StoreEntry",
})
