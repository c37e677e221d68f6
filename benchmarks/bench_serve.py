"""SERVE — end-to-end benchmark of the serving subsystem.

Trains a tiny model on the ``micro`` dataset, snapshots it, and replays
open-loop request streams against the snapshot on the simulated
heterogeneous server. Ten sections:

1. **snapshot** — save/load round-trip: wall time, file sizes, and a
   bit-identity check of the restored parameter vector;
2. **latency** — sequential (batch=1) vs adaptive micro-batching under the
   same saturating Poisson load: throughput, p50/p95/p99 latency, mean
   batch size. ``speedup`` is the adaptive/sequential throughput ratio —
   the headline number (the fixed per-dispatch overhead is what
   micro-batching amortizes);
3. **lsh** — exact dense top-k vs the LSH path on the *micro* model
   (L=64): host scoring wall time, candidate selectivity, and recall@5 vs
   exact. At this label count LSH is expected to lose — candidate sets
   cover most of the output layer; the section documents the regime where
   the crossover must choose exact;
4. **lsh_scale** — the batched multi-probe LSH pipeline vs exact dense
   top-k at XML scale (L = 8k smoke / 32k full) on a planted-similarity
   synthetic snapshot (each query has 5 high-cosine output columns, so
   recall@5 is measurable against an unambiguous exact top-5). Host wall
   time is the best of 7 rounds per path, each round timing every path
   once, so host noise hits them alike (``lsh_vs_forward`` over ten smoke
   runs: 3.2-4.6x timed one path after another, best of 3; 2.8-3.9x
   interleaved). ``exact_score_us`` is the exact path's forward
   alone, so ``exact_us - exact_score_us`` is what ranking costs;
   ``speedup`` is exact/LSH and is recorded, not gated: since ``topk_indices``
   ranks in rounds of ``argmax`` the exact path is within 1.3x of its GEMM
   and wins at both sizes on the reference box (0.55x at L=8192, 0.5-0.9x
   at L=32768). ``lsh_vs_forward`` = ``lsh_us / exact_score_us`` is the
   gate that LSH itself did not get slower, against a yardstick from the
   same process;
5. **crossover** — ``auto`` scoring (per-batch cost-model choice between
   exact and LSH) vs both fixed policies on the same arrival stream, in
   both regimes: small-L (micro, where exact must win) and large-L (the
   planted snapshot, where LSH must win on the modeled device).
   Simulated-clock throughput;
   ``auto_vs_best`` is auto's throughput over the better fixed mode's;
6. **burst** — the adaptive sizer under a 4x burst arrival pattern vs the
   same-rate Poisson stream: p99 and queue high-water mark;
7. **swap** — zero-downtime hot-swap under load: a training session
   publishes versions into a snapshot store on the sim clock, and a
   Poisson stream spanning that publish window is served while every
   later version swaps in mid-traffic (warming off the dispatch path,
   per-request pinning, labeled recall canary). Reports swap counts,
   versions served, and p99 of requests overlapping a swap window vs the
   steady state; a second sub-run publishes a garbage model mid-window
   and must roll back to the prior version;
8. **tenants** — multi-tenant isolation under the priority-tier +
   round-robin scheduler. A class-0 victim at 30% of sequential capacity
   is served solo, then contended by a class-1 noisy neighbor at 10x its fair
   share; the victim's contended p99 must stay within 1.3x its solo p99.
   A 40x surge sub-run with a shallow queue shows graded shedding (every
   shed lands on the aggressor), and a uniform-load sub-run splits one
   saturating stream across two same-class tenants to confirm the
   scheduler costs <10% aggregate throughput vs the single-tenant path.
   ``traced_bytes_per_request`` is the ``tracemalloc`` peak of one more
   contended run, arrivals included, over its request count, and
   ``queue_extends_per_request`` counts ``TenantScheduler._admit`` calls
   (one ``deque.extend`` each) per request of the contended run: a due
   cohort's shed-free prefix is one call per run of one (class, tenant),
   so it sits well under the 1.0 of one call per admitted arrival;
9. **elastic** — the membership subsystem under the ``spot-churn``
   preset (fail + join + throttle/recover). Training: a churned adaptive
   run vs a static one at the same budget — the churned run discards the
   failed replica's update exactly once, rescales survivors, warm-starts
   the joiner, and must stay within a bounded accuracy factor of static.
   Serving: the same saturating stream steady vs churned — survivors
   absorb a failed device's share with p99 within a bounded factor;
10. **replay** — the host cost of the event core on a saturated adaptive
   replay (3k smoke / 42k full requests, the ``serve-replay`` workload of
   ``benchmarks/e2e`` in-process). ``events_per_request`` counts
   ``Environment.step`` calls per request: a count, so it repeats exactly.
   Cohort admission keeps it near one event per *batch* (0.09 at mean
   batch 12); a per-request arrival process would put it above 1.
   ``scoring_calls_per_1k_requests`` counts ``Predictor.topk`` calls the
   same way: the first batch fills the run's one label table, the whole
   query pool in ``Predictor.chunk`` rows per call, so the replay makes one
   call (0.33 smoke / 0.024 full per 1k requests; one per dispatched batch
   was 83). ``scored_rows_per_request`` counts the rows those calls score:
   each query row once per (model version, path) (0.043 smoke / 0.003 full
   over ``micro``'s 128 test rows; 1.0 when every request's row was scored
   again). ``lsh_scored_rows_per_request`` counts the rows
   ``Predictor.lsh_stats`` scores on one more, untimed replay of the same
   stream under ``scoring="lsh"``, into the same kind of table, so it reads
   like the exact count.
   ``push_calls_per_1k_requests`` counts per-arrival
   ``TenantScheduler.push`` calls: a due cohort is admitted with one
   ``admit`` call whose shed-free prefix skips ``push`` (1,000 per 1k when
   every arrival went through ``push``; 0 now).
   ``traced_bytes_per_request`` is the ``tracemalloc`` peak of one more,
   untimed replay over its request count: a run keeps no object per
   request, only one columnar request table and one label array (430
   bytes per request with per-request label lists and a completion log,
   330 smoke / 260 full with ``Request`` objects, 201 / 146 when every
   request's row was gathered, 153 / 146 now).
   ``archive_lines_per_request`` counts the JSONL lines one more replay,
   with telemetry on, exports per request: a span per batch, its gauge
   sample and the request table, ``REQUEST_CHUNK`` rows a line (0.18
   smoke; 1.18 with a ``serve.request`` span per request).
   ``host_rps`` (best of 3) is recorded for the registry history, not gated.

Run as a script: ``python benchmarks/bench_serve.py [--smoke] [--out F]
[--check]``. ``--check`` gates on absolute floors: adaptive throughput
must be >= 1x sequential in smoke mode (>= 3x full), LSH recall@5 must be
>= 0.8 in both LSH sections, the lsh_scale LSH path may cost at most 4x
the dense forward it avoids, ``auto`` must land within 10% of the better fixed
scoring mode in both crossover regimes, the swap section must commit
at least one hot-swap with zero shed/mis-versioned requests, a
swap-window p99 within 1.25x steady state, and a rollback on the
injected recall regression, and the tenants section must keep the
noisy-neighbor victim's p99 within 1.3x solo, make at most 0.5 queue
extends per request, shed only aggressor work in the surge, and hold
>= 0.9x single-tenant aggregate throughput on the uniform split, and the
elastic section must keep churned training within 2x smoke / 1.5x full of
static accuracy, deliver fail+join+throttle events, and keep churned
serve p99 within 3x smoke / 2.5x full of steady with every request
served, and the replay section must spend at most 0.5 sim events per
request, at most 1 scoring call per 1,000 requests, at most 0.1 scored
rows per request, at most 230 traced bytes per request and at most 0.25
archive lines per request — the CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import make_engine, make_trainer  # noqa: E402
from repro.data.registry import load_task  # noqa: E402
from repro.elastic import ClusterMembership  # noqa: E402
from repro.gpu.cluster import make_server  # noqa: E402
from repro.gpu.cost import GpuCostParams  # noqa: E402
from repro.harness.experiment import ExperimentSpec  # noqa: E402
from repro.sim.environment import Environment  # noqa: E402
from repro.serve import (  # noqa: E402
    LoadSpec,
    ModelSnapshot,
    Predictor,
    ServingEngine,
    SnapshotStore,
    TenantScheduler,
    generate_arrivals,
    nearest_rank_percentile,
    sample_query_rows,
)
from repro.serve.loadgen import (  # noqa: E402
    noisy_neighbor_loads,
    service_time_s,
)
from repro.sparse.mlp import MLPArchitecture, SparseMLP  # noqa: E402
from repro.telemetry.core import Telemetry  # noqa: E402
from repro.telemetry.export import write_jsonl  # noqa: E402

RECALL_FLOOR = 0.8        # LSH recall@5 vs exact (both modes)
SPEEDUP_FLOOR_SMOKE = 1.0  # adaptive >= sequential throughput in smoke
SPEEDUP_FLOOR_FULL = 3.0   # the paper-style amortization claim in full
#: Host time of the batched LSH pipeline over the dense forward of the same
#: queries, at scale (measured 1.1-2.8x across BLAS thread counts).
LSH_VS_FORWARD_CEILING = 4.0
#: Rounds of the lsh_scale timings; each round times every path once.
LSH_SCALE_REPEATS = 7
#: ``auto`` scoring may lose at most 10% to the better fixed mode.
CROSSOVER_FLOOR = 0.9
#: p99 of requests overlapping a swap window vs steady state (the
#: zero-downtime claim: warming happens off the dispatch path).
SWAP_P99_FACTOR = 1.25
#: Noisy-neighbor isolation: the class-0 victim's contended p99 over its
#: solo p99 under a 10x-fair-share class-1 aggressor.
ISOLATION_FACTOR = 1.3
#: Aggregate throughput of the tenant scheduler on a uniform two-tenant
#: split vs the single-tenant engine on the same arrivals.
MT_THROUGHPUT_FLOOR = 0.9
#: Elastic churn: best accuracy of the static run over the spot-churn run
#: at the same time budget (training keeps working through fail/join).
ELASTIC_TRAIN_FACTOR_SMOKE = 2.0
ELASTIC_TRAIN_FACTOR_FULL = 1.5
#: Elastic churn: p99 of the churned serve over the steady serve on the
#: same arrivals (survivors absorb a failed device without blowing SLOs).
ELASTIC_P99_FACTOR_SMOKE = 3.0
ELASTIC_P99_FACTOR_FULL = 2.5
#: Sim events per request on the saturated replay. Cohort admission costs
#: about one event per batch; one event per arrival would be > 1.
REPLAY_EVENTS_CEILING = 0.5
#: ``Predictor.topk`` calls per 1,000 requests on the same replay: one call
#: per ``Predictor.chunk`` rows of each (version, path) label table, 0.33 at
#: 3k requests; one call per dispatched batch was 83.
REPLAY_SCORING_CALLS_CEILING = 1.0
#: Query rows ``Predictor.topk`` scores per request on the same replay, and
#: ``Predictor.lsh_stats`` on its LSH twin. Each (row, version, path) is
#: scored once into a label table: 0.043 at 3k requests over a 128-row pool;
#: one row per request was 1.0.
REPLAY_SCORED_ROWS_CEILING = 0.1
#: Per-arrival ``TenantScheduler.push`` calls per 1,000 requests on the same
#: replay. A lone tenant below its depth limit is admitted a cohort at a
#: time (0); one ``push`` per arrival was 1,000.
REPLAY_PUSH_CALLS_CEILING = 10
#: ``tracemalloc`` peak per request of the same replay. Per-request label
#: lists and a ``(t_done, latency)`` log put it at 430-460 bytes, one
#: ``Request`` object per arrival at 330; the columnar request table
#: measured 201 at 3k requests, 153 since each query row is gathered once
#: per label table.
REPLAY_TRACED_BYTES_CEILING = 230
#: JSONL archive lines per request of the same replay with telemetry on:
#: 0.18 at 3k requests with the request table; a span per request was 1.18.
REPLAY_ARCHIVE_LINES_CEILING = 0.25
#: ``tracemalloc`` peak per request of the contended noisy-neighbor run,
#: arrival generation included: 242 bytes with one tenant-name string per
#: request, 189 with one reference per request (the ceiling keeps 14%).
TENANTS_TRACED_BYTES_CEILING = 215
#: ``TenantScheduler._admit`` calls per request of the contended run: one
#: per admitted arrival was 1.0; one per run of one (class, tenant) in a
#: due cohort reads far less (the ceiling is half the per-arrival value).
TENANTS_EXTENDS_CEILING = 0.5
#: Planted-similarity LSH geometry (tuned: ~0.8% candidate fraction with
#: recall@5 ~0.95 at both bench scales).
SCALE_TABLES, SCALE_BITS, SCALE_PROBES = 12, 13, 4
N_GPUS = 2
K = 5


def _fresh_server(seed: int = 0):
    return make_server(
        N_GPUS, heterogeneity="het",
        cost_params=GpuCostParams.tiny_model_profile(), seed=seed,
    )


def _train_snapshot(workdir: Path, smoke: bool) -> ModelSnapshot:
    """One short adaptive run on micro; returns the round-tripped snapshot."""
    budget = 0.05 if smoke else 0.3
    spec = ExperimentSpec(
        dataset="micro", gpu_counts=(N_GPUS,), time_budget_s=budget,
    )
    trainer = make_trainer("adaptive", spec)
    trace = trainer.run(time_budget_s=budget)
    stem = workdir / "bench-model"
    trainer.save_snapshot(stem, final_accuracy=trace.final_accuracy)
    return ModelSnapshot.load(stem)


def _serve(predictor, X, arrivals, rows, *, mode, scoring="exact",
           pattern_seed=0):
    engine = ServingEngine(
        predictor, _fresh_server(seed=pattern_seed), mode=mode,
        target_latency_s=2e-3, scoring=scoring,
    )
    return engine.serve(X, arrivals, k=K, row_indices=rows)


def _planted_snapshot(L, n_queries, *, h=128, seed=0, n_planted=5,
                      support=32):
    """A synthetic XML-scale snapshot with planted high-similarity labels.

    The model is a transparent 1-hidden-layer MLP (``W1 = I``, zero biases)
    so each sparse non-negative query row *is* its own hidden activation.
    The output layer holds ``L`` Gaussian background columns, except that
    every query gets ``n_planted`` planted columns with cosine similarity
    0.80–0.97 to its activation (disjoint round-robin label ids). The
    planted logits sit ~sqrt(h)·cos above the background noise, so the
    exact top-5 is unambiguous and LSH recall@5 measures exactly how much
    of it survives candidate retrieval. Sparse support (~support/h dense)
    keeps background cosines near zero — the selective-retrieval regime
    the approximate path is built for.
    """
    if n_planted * n_queries > L:
        raise ValueError("need n_planted * n_queries <= L for disjoint ids")
    rng = np.random.default_rng(seed)
    arch = MLPArchitecture(h, L, hidden=(h,))
    state = SparseMLP(arch).init_state(seed=0)
    state["W1"][...] = np.eye(h, dtype=np.float32)
    state["b1"][...] = 0.0
    W2 = rng.normal(size=(h, L)).astype(np.float32)
    X = np.zeros((n_queries, h), dtype=np.float32)
    for i in range(n_queries):
        idx = rng.choice(h, size=support, replace=False)
        X[i, idx] = rng.gamma(2.0, 1.0, size=support)
    hhat = X / np.linalg.norm(X, axis=1, keepdims=True)
    cosines = np.linspace(0.80, 0.97, n_planted)
    for j in range(n_planted):
        g = rng.normal(size=(n_queries, h)).astype(np.float32)
        g -= (g * hhat).sum(axis=1, keepdims=True) * hhat
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        planted = np.sqrt(h) * (cosines[j] * hhat
                                + np.sqrt(1.0 - cosines[j] ** 2) * g)
        W2[:, np.arange(n_queries) * n_planted + j] = planted.T
    state["W2"][...] = W2
    state["b2"][...] = 0.0
    snapshot = ModelSnapshot(
        arch=arch, state=state, meta={"dataset": "planted-synthetic"},
    )
    return snapshot, sp.csr_matrix(X)


def _scale_predictor(snapshot):
    return Predictor(
        snapshot, lsh_tables=SCALE_TABLES, lsh_bits=SCALE_BITS,
        lsh_probes=SCALE_PROBES, lsh_seed=0,
    )


def _best_of(*fns, repeats=3):
    """Min wall time (us) of each of ``fns`` over ``repeats`` rounds of one
    call each: interleaved, so a noisy stretch of the host slows every
    path alike instead of the one timed through it."""
    times = [[] for _ in fns]
    for _ in range(repeats):
        for fn, fn_times in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            fn_times.append(time.perf_counter() - t0)
    return [min(fn_times) * 1e6 for fn_times in times]


def bench_snapshot(snapshot: ModelSnapshot, workdir: Path) -> dict:
    stem = workdir / "roundtrip"
    t0 = time.perf_counter()
    header = snapshot.save(stem)
    save_us = (time.perf_counter() - t0) * 1e6
    t0 = time.perf_counter()
    restored = ModelSnapshot.load(stem)
    load_us = (time.perf_counter() - t0) * 1e6
    identical = bool(
        np.array_equal(snapshot.state.vector, restored.state.vector)
    )
    npz = stem.parent / f"{stem.name}.snapshot.npz"
    return {
        "what": f"{snapshot.state.n_params}-param snapshot round-trip",
        "save_us": save_us,
        "load_us": load_us,
        "header_bytes": header.stat().st_size,
        "npz_bytes": npz.stat().st_size,
        "bit_identical": identical,
    }


def bench_latency(predictor: Predictor, task, smoke: bool) -> dict:
    n_requests = 200 if smoke else 2000
    X = task.test.X
    # ~10x the cluster's sequential capacity: both modes run where dispatch
    # overhead, not offered load, is the bottleneck.
    rate = 10.0 * N_GPUS / service_time_s(predictor, _fresh_server(), X)
    load = LoadSpec(n_requests=n_requests, rate_rps=rate, seed=0)
    arrivals = generate_arrivals(load)
    rows = sample_query_rows(X.shape[0], n_requests, seed=0)
    out = {"what": f"{n_requests} Poisson requests at {rate:.0f} rps "
                   f"on {N_GPUS} GPUs"}
    for mode in ("sequential", "adaptive"):
        result = _serve(predictor, X, arrivals, rows, mode=mode)
        p50, p95, p99 = result.latency_ms()
        out[mode] = {
            "throughput_rps": result.throughput_rps,
            "latency_p50_ms": p50,
            "latency_p95_ms": p95,
            "latency_p99_ms": p99,
            "mean_batch_size": result.mean_batch_size,
            "max_queue_depth": result.max_queue_depth,
        }
    out["speedup"] = (
        out["adaptive"]["throughput_rps"] / out["sequential"]["throughput_rps"]
    )
    return out


def bench_lsh(predictor: Predictor, task, smoke: bool) -> dict:
    n_queries = 128 if smoke else 512
    rows = sample_query_rows(task.test.X.shape[0], n_queries, seed=1)
    X = task.test.X[rows]
    predictor.rebuild_lsh()
    # Warm both paths once (BLAS thread pools, table hashing).
    predictor.topk(X[:8], K)
    predictor.topk_lsh(X[:8], K)
    t0 = time.perf_counter()
    predictor.topk(X, K)
    exact_us = (time.perf_counter() - t0) * 1e6
    t0 = time.perf_counter()
    predictor.topk_lsh(X, K)
    lsh_us = (time.perf_counter() - t0) * 1e6
    counts = predictor.candidate_counts(X)
    return {
        "what": f"{n_queries} queries, exact dense vs LSH candidates, "
                f"L={predictor.arch.n_labels}",
        "exact_us": exact_us,
        "lsh_us": lsh_us,
        "recall_at_5": predictor.recall_at_k(X, K),
        "mean_candidates": float(counts.mean()),
        "candidate_fraction": float(counts.mean() / predictor.arch.n_labels),
    }


def bench_lsh_scale(smoke: bool) -> dict:
    L, n_queries = (8192, 128) if smoke else (32768, 512)
    snapshot, X = _planted_snapshot(L, n_queries)
    predictor = _scale_predictor(snapshot)
    predictor.rebuild_lsh()
    # Warm both paths (BLAS thread pools, flat tables).
    predictor.topk(X[:8], K)
    predictor.topk_lsh(X[:8], K)
    exact_us, exact_score_us, lsh_us = _best_of(
        lambda: predictor.topk(X, K),
        lambda: predictor.score(X),
        lambda: predictor.topk_lsh(X, K),
        repeats=LSH_SCALE_REPEATS,
    )
    counts = predictor.candidate_counts(X)
    return {
        "what": f"{n_queries} planted queries, batched LSH vs exact dense, "
                f"L={L}, T={SCALE_TABLES}/K={SCALE_BITS}/P={SCALE_PROBES}",
        "exact_us": exact_us,
        "exact_score_us": exact_score_us,
        "lsh_us": lsh_us,
        "speedup": exact_us / lsh_us,
        "lsh_vs_forward": lsh_us / exact_score_us,
        "recall_at_5": predictor.recall_at_k(X, K),
        "mean_candidates": float(counts.mean()),
        "candidate_fraction": float(counts.mean() / L),
    }


def bench_crossover(snapshot: ModelSnapshot, task, smoke: bool) -> dict:
    n_requests = 100 if smoke else 400
    L_big, n_big = (4096, 64) if smoke else (16384, 256)
    planted_snap, X_big = _planted_snapshot(L_big, n_big)
    # Fresh predictors per scoring run so the candidate-fraction EWMA of one
    # policy cannot leak into another's cost-model pricing.
    scenarios = {
        "small_L": (lambda: Predictor(snapshot), task.test.X),
        "large_L": (lambda: _scale_predictor(planted_snap), X_big),
    }
    out = {"what": f"{n_requests} requests per scoring mode, adaptive "
                   f"micro-batching, small-L (micro) vs large-L "
                   f"(planted, L={L_big})"}
    for name, (make_predictor, X) in scenarios.items():
        rate = 10.0 * N_GPUS / service_time_s(
            make_predictor(), _fresh_server(), X)
        load = LoadSpec(n_requests=n_requests, rate_rps=rate, seed=3)
        arrivals = generate_arrivals(load)
        rows = sample_query_rows(X.shape[0], n_requests, seed=3)
        entry = {}
        for scoring in ("exact", "lsh", "auto"):
            result = _serve(make_predictor(), X, arrivals, rows,
                            mode="adaptive", scoring=scoring)
            entry[scoring] = {
                "throughput_rps": result.throughput_rps,
                "scoring_batches": result.scoring_batches,
            }
            if result.mean_candidate_fraction is not None:
                entry[scoring]["mean_candidate_fraction"] = (
                    result.mean_candidate_fraction
                )
        best_fixed = max(entry["exact"]["throughput_rps"],
                         entry["lsh"]["throughput_rps"])
        entry["auto_vs_best"] = entry["auto"]["throughput_rps"] / best_fixed
        out[name] = entry
    return out


def bench_burst(predictor: Predictor, task, smoke: bool) -> dict:
    n_requests = 200 if smoke else 2000
    X = task.test.X
    # Base rate below the adaptive capacity, hot episodes (4x) above it:
    # burst spikes, not steady overload, are what stresses the sizer.
    rate = 10.0 * N_GPUS / service_time_s(predictor, _fresh_server(), X) / 4.0
    rows = sample_query_rows(X.shape[0], n_requests, seed=2)
    out = {"what": f"{n_requests} requests at {rate:.0f} rps, "
                   f"poisson vs 4x burst, adaptive mode"}
    for pattern in ("poisson", "burst"):
        load = LoadSpec(
            n_requests=n_requests, rate_rps=rate, pattern=pattern, seed=2,
        )
        arrivals = generate_arrivals(load)
        result = _serve(predictor, X, arrivals, rows, mode="adaptive")
        out[pattern] = {
            "latency_p50_ms": result.percentile(50) * 1e3,
            "latency_p99_ms": result.percentile(99) * 1e3,
            "mean_batch_size": result.mean_batch_size,
            "max_queue_depth": result.max_queue_depth,
        }
    return out


def bench_tenants(predictor: Predictor, task, smoke: bool) -> dict:
    """Noisy-neighbor isolation, graded shedding, and scheduler overhead."""
    n_victim = 800 if smoke else 2000
    X = task.test.X
    capacity = N_GPUS / service_time_s(predictor, _fresh_server(), X)

    def _serve_tenants(load, max_depth=256):
        times, tenants, classes = load
        return ServingEngine(
            predictor, _fresh_server(), mode="adaptive",
            class_slo_ms={0: 2.0, 1: 2.0}, max_queue_depth=max_depth,
        ).serve(X, times, k=K, tenants=tenants, priority_classes=classes)

    def _contended(aggressor_x_fair, max_depth):
        return _serve_tenants(noisy_neighbor_loads(
            capacity, n_victim, aggressor_x_fair, "poisson", 0,
        ).contended, max_depth)

    # Victim alone: its open-loop arrival schedule is identical in the
    # contended runs (independent per-tenant streams), so the p99 ratio
    # is pure interference.
    solo = _serve_tenants(
        noisy_neighbor_loads(capacity, n_victim, 10.0, "poisson", 0).solo)
    solo_p99 = solo.tenants["victim"]["latency_p99_ms"]

    extends, queue = [0], TenantScheduler._admit

    def counting_admit(scheduler, *args):
        extends[0] += 1
        queue(scheduler, *args)

    TenantScheduler._admit = counting_admit
    try:
        contended = _contended(aggressor_x_fair=10.0, max_depth=256)
    finally:
        TenantScheduler._admit = queue
    # Once more under tracemalloc, arrival generation included: the
    # tenant column is one reference per request, not a string.
    tracemalloc.start()
    try:
        _contended(aggressor_x_fair=10.0, max_depth=256)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    victim = contended.tenants["victim"]
    aggressor = contended.tenants["aggressor"]
    neighbor = {
        "aggressor_x_fair": 10.0,
        "victim_p99_solo_ms": solo_p99,
        "victim_p99_contended_ms": victim["latency_p99_ms"],
        "isolation_ratio": victim["latency_p99_ms"] / solo_p99,
        "victim_n_shed": victim["n_shed"],
        "aggressor_completed": aggressor["completed"],
        "aggressor_p99_ms": aggressor["latency_p99_ms"],
        "max_queue_depth": contended.max_queue_depth,
        "n_requests": contended.requests.arrival.size,
        "traced_bytes_per_request":
            traced_peak / contended.requests.arrival.size,
        "queue_extends_per_request":
            extends[0] / contended.requests.arrival.size,
    }

    # 40x fair share against a shallow queue: the scheduler must shed,
    # and every shed must land on the aggressor (priority ordering).
    surge = _contended(aggressor_x_fair=40.0, max_depth=64)
    sv, sn = surge.tenants["victim"], surge.tenants["aggressor"]
    surge_out = {
        "aggressor_x_fair": 40.0,
        "max_queue_depth_limit": 64,
        "victim_p99_ratio": sv["latency_p99_ms"] / solo_p99,
        "victim_n_shed": sv["n_shed"],
        "aggressor_n_shed": sn["n_shed"],
        "aggressor_completed": sn["completed"],
        "shed_by_tenant": dict(surge.shed_by_tenant),
    }

    # Same saturating stream served once untagged and once split across
    # two tenants: the round-robin machinery must be ~free.
    n_uniform = 1000 if smoke else 4000
    arrivals = generate_arrivals(
        LoadSpec(n_requests=n_uniform, rate_rps=5.0 * capacity, seed=7)
    )
    single = ServingEngine(
        predictor, _fresh_server(), mode="adaptive", target_latency_s=2e-3,
    ).serve(X, arrivals, k=K)
    split_tenants = np.where(
        np.arange(n_uniform) % 2 == 0, "a", "b"
    ).astype(object)
    multi = ServingEngine(
        predictor, _fresh_server(), mode="adaptive", target_latency_s=2e-3,
    ).serve(X, arrivals, k=K, tenants=split_tenants,
            priority_classes=np.zeros(n_uniform, dtype=np.int64))
    uniform = {
        "single_rps": single.throughput_rps,
        "multi_rps": multi.throughput_rps,
        "throughput_ratio": (
            multi.throughput_rps / single.throughput_rps
        ),
        "fairness": multi.fairness,
    }
    return {
        "what": f"victim {n_victim} reqs @30% capacity vs class-1 "
                f"aggressor at 10x/40x fair share; {n_uniform}-req "
                f"uniform split, adaptive mode",
        "noisy_neighbor": neighbor,
        "surge": surge_out,
        "uniform": uniform,
    }


def bench_swap(task, workdir: Path, smoke: bool) -> dict:
    """Hot-swap under load (good path) + injected-regression rollback."""
    budget = 0.05 if smoke else 0.2
    n_requests = 600 if smoke else 3000
    X, Y = task.test.X, task.test.Y

    # A training session publishing ~5 versions on the sim clock.
    store = SnapshotStore(workdir / "bench-store")
    spec = ExperimentSpec(
        dataset="micro", gpu_counts=(N_GPUS,), time_budget_s=budget,
    )
    trainer = make_trainer("adaptive", spec)
    trainer.publish_snapshot(store, every_s=budget / 5.0)
    trainer.run(time_budget_s=budget)

    # Arrivals span the publish window (plus slack) at a rate well below
    # capacity, so steady-state latency is uniform and the swap-window p99
    # comparison is meaningful.
    span = store.entries[-1].published_s * 1.2
    rate = n_requests / span
    arrivals = generate_arrivals(
        LoadSpec(n_requests=n_requests, rate_rps=rate, seed=4)
    )
    rows = sample_query_rows(X.shape[0], n_requests, seed=4)
    engine = make_engine(
        store, mode="adaptive", scoring="auto", n_gpus=N_GPUS,
    )
    result = engine.serve(X, arrivals, k=K, row_indices=rows,
                          canary_labels=Y)

    # p99 of requests whose lifetime overlapped a swap (warming -> commit)
    # window vs everything else.
    windows = [
        (s["t_warm_start"], s["t_commit"])
        for s in result.swaps if "t_commit" in s
    ]

    table = result.requests
    served = ~np.isnan(table.done)
    arrival, done = table.arrival[served], table.done[served]
    overlaps = np.zeros(arrival.size, dtype=bool)
    for t0, t1 in windows:
        overlaps |= (arrival <= t1) & (done >= t0)
    in_window = (done - arrival)[overlaps].tolist()
    steady = (done - arrival)[~overlaps].tolist()
    good = {
        "n_requests": n_requests,
        "n_versions": len(store.versions()),
        "swaps": result.n_swaps,
        "rollbacks": result.n_rollbacks,
        "swap_failures": result.n_swap_failures,
        "mis_versioned": result.mis_versioned,
        "n_shed": result.n_shed,
        "versions_served": {
            str(v): n for v, n in sorted(result.versions_served.items())
        },
        "requests_in_swap_windows": len(in_window),
    }
    if in_window and steady:
        good["p99_in_window_ms"] = nearest_rank_percentile(in_window, 99) * 1e3
        good["p99_steady_ms"] = nearest_rank_percentile(steady, 99) * 1e3
        good["swap_p99_ratio"] = (
            good["p99_in_window_ms"] / good["p99_steady_ms"]
        )

    # Injected regression: trained v1 at t=0, a garbage re-init mid-window.
    # The labeled recall canary must roll the active pointer back to v1.
    bad_store = SnapshotStore(workdir / "bench-store-bad")
    trained = store.load(store.latest_version())
    bad_store.publish(trained, published_s=0.0)
    garbage = ModelSnapshot(
        arch=trained.arch,
        state=SparseMLP(trained.arch).init_state(seed=999),
        meta=dict(trained.meta),
    )
    bad_store.publish(garbage, published_s=span / 2.0)
    engine = make_engine(bad_store, mode="adaptive", n_gpus=N_GPUS)
    bad_result = engine.serve(X, arrivals, k=K, row_indices=rows,
                              canary_labels=Y)
    rollback = {
        "swaps": bad_result.n_swaps,
        "rollbacks": bad_result.n_rollbacks,
        "active_version": bad_result.active_version,
        "n_unserved": int(np.isnan(bad_result.requests.done).sum()),
        "reasons": [
            s.get("rollback_reason") for s in bad_result.swaps
            if s.get("rolled_back")
        ],
    }
    return {
        "what": f"{n_requests} Poisson requests spanning a "
                f"{len(store.versions())}-version publish schedule, "
                f"adaptive mode, auto scoring",
        "good_path": good,
        "rollback": rollback,
    }


def bench_elastic(predictor: Predictor, task, smoke: bool) -> dict:
    """Elastic membership: spot-churn vs static, training and serving.

    Training: two adaptive runs at the same time budget on a 4-GPU
    server — one static, one driven through the ``spot-churn`` preset
    (fail + join + throttle/recover, scaled to the device count). The
    churned run must keep learning: ``quality_ratio`` is static best
    accuracy over churned best accuracy.

    Serving: the same saturating Poisson stream replayed steady and
    under spot-churn; ``p99_ratio`` is churned p99 over steady p99.
    """
    budget = 0.05 if smoke else 0.2
    n_train_gpus = 4

    def train(churn):
        spec = ExperimentSpec(
            dataset="micro", gpu_counts=(n_train_gpus,), time_budget_s=budget,
        )
        server = spec.build_server(n_train_gpus)
        membership = None
        if churn:
            membership = ClusterMembership(
                server, churn, duration_s=budget, seed=0,
            )
        trainer = make_trainer(
            "adaptive", spec, server=server, membership=membership,
        )
        trace = trainer.run(time_budget_s=budget)
        return trace, membership

    static_trace, _ = train(None)
    churned_trace, membership = train("spot-churn")
    summary = membership.summary()
    quality_ratio = float(
        static_trace.best_accuracy / max(churned_trace.best_accuracy, 1e-9)
    )

    n_requests = 200 if smoke else 1500
    X = task.test.X
    rate = 10.0 * N_GPUS / service_time_s(predictor, _fresh_server(), X)
    arrivals = generate_arrivals(
        LoadSpec(n_requests=n_requests, rate_rps=rate, seed=0)
    )
    rows = sample_query_rows(X.shape[0], n_requests, seed=0)
    span = float(arrivals[-1])

    steady = _serve(predictor, X, arrivals, rows, mode="adaptive")
    server = _fresh_server()
    serve_membership = ClusterMembership(
        server, "spot-churn", duration_s=span, seed=0,
    )
    engine = ServingEngine(
        predictor, server, mode="adaptive", target_latency_s=2e-3,
    )
    churned = engine.serve(
        X, arrivals, k=K, row_indices=rows, membership=serve_membership,
    )
    p99_ratio = float(
        churned.percentile(99) / steady.percentile(99)
    )
    return {
        "what": (f"spot-churn vs static: {n_train_gpus}-GPU training at "
                 f"{budget:.2f} s budget; {n_requests} requests on "
                 f"{N_GPUS} GPUs"),
        "training": {
            "static_best_accuracy": float(static_trace.best_accuracy),
            "churned_best_accuracy": float(churned_trace.best_accuracy),
            "quality_ratio": quality_ratio,
            "n_events": summary["n_events"],
            "n_applied": summary["n_applied"],
            "by_kind": summary["by_kind"],
            "updates_merged": summary["updates_merged"],
            "updates_discarded": summary["updates_discarded"],
            "final_devices": summary["final_devices"],
        },
        "serving": {
            "steady_p99_ms": float(steady.percentile(99) * 1e3),
            "churned_p99_ms": float(churned.percentile(99) * 1e3),
            "p99_ratio": p99_ratio,
            "n_served": int((~np.isnan(churned.requests.done)).sum()),
            "n_requests": n_requests,
            "n_membership_events": churned.n_membership_events,
            "final_devices": churned.final_devices,
        },
    }


def bench_replay(predictor: Predictor, task, smoke: bool) -> dict:
    n_requests = 3000 if smoke else 42000
    X = task.test.X
    rate = 10.0 * N_GPUS / service_time_s(predictor, _fresh_server(), X)
    arrivals = generate_arrivals(
        LoadSpec(n_requests=n_requests, rate_rps=rate, seed=0)
    )
    rows = sample_query_rows(X.shape[0], n_requests, seed=0)

    def replay():
        return _serve(predictor, X, arrivals, rows, mode="adaptive")

    (host_us,) = _best_of(replay)
    events, scoring_calls, scored_rows, push_calls = [0], [0], [0], [0]
    step, topk, push = Environment.step, Predictor.topk, TenantScheduler.push

    def counting_step(env):
        events[0] += 1
        step(env)

    def counting_topk(pred, X, k):
        scoring_calls[0] += 1
        scored_rows[0] += X.shape[0]
        return topk(pred, X, k)

    def counting_push(scheduler, req_id, **kwargs):
        push_calls[0] += 1
        return push(scheduler, req_id, **kwargs)

    Environment.step, Predictor.topk = counting_step, counting_topk
    TenantScheduler.push = counting_push
    try:
        result = replay()
    finally:
        Environment.step, Predictor.topk = step, topk
        TenantScheduler.push = push
    lsh_rows, lsh_stats = [0], Predictor.lsh_stats

    def counting_lsh_stats(pred, X, k):
        lsh_rows[0] += X.shape[0]
        return lsh_stats(pred, X, k)

    Predictor.lsh_stats = counting_lsh_stats
    try:  # a fresh predictor: this replay feeds its own fraction EWMA
        _serve(Predictor(predictor.snapshot), X, arrivals, rows,
               mode="adaptive", scoring="lsh")
    finally:
        Predictor.lsh_stats = lsh_stats
    tracemalloc.start()
    try:
        replay()
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tel = Telemetry(label="replay")
    ServingEngine(
        predictor, _fresh_server(), mode="adaptive", target_latency_s=2e-3,
        telemetry=tel,
    ).serve(X, arrivals, k=K, row_indices=rows)
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        with write_jsonl(tel, Path(tmp) / "replay.jsonl").open() as fh:
            archive_lines = sum(1 for _ in fh)
    return {
        "what": f"{n_requests} Poisson requests at {rate:.0f} rps, adaptive, "
                f"{N_GPUS} GPUs",
        "n_requests": n_requests,
        "n_batches": len(result.batch_sizes),
        "mean_batch_size": result.mean_batch_size,
        "sim_events": events[0],
        "events_per_request": events[0] / n_requests,
        "scoring_calls": scoring_calls[0],
        "scoring_calls_per_1k_requests": 1e3 * scoring_calls[0] / n_requests,
        "scored_rows_per_request": scored_rows[0] / n_requests,
        "lsh_scored_rows_per_request": lsh_rows[0] / n_requests,
        "push_calls_per_1k_requests": 1e3 * push_calls[0] / n_requests,
        "traced_bytes_per_request": traced_peak / n_requests,
        "archive_lines_per_request": archive_lines / n_requests,
        "throughput_rps": result.throughput_rps,
        "host_rps": n_requests / (host_us * 1e-6),
    }


def run(smoke: bool) -> dict:
    task = load_task("micro", seed=0)
    sections = {}
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        workdir = Path(tmp)
        snapshot = _train_snapshot(workdir, smoke)
        predictor = Predictor(snapshot)
        sections["snapshot"] = bench_snapshot(snapshot, workdir)
        sections["latency"] = bench_latency(predictor, task, smoke)
        sections["lsh"] = bench_lsh(predictor, task, smoke)
        sections["lsh_scale"] = bench_lsh_scale(smoke)
        sections["crossover"] = bench_crossover(snapshot, task, smoke)
        sections["burst"] = bench_burst(predictor, task, smoke)
        sections["swap"] = bench_swap(task, workdir, smoke)
        sections["tenants"] = bench_tenants(predictor, task, smoke)
        sections["elastic"] = bench_elastic(predictor, task, smoke)
        sections["replay"] = bench_replay(predictor, task, smoke)
    s = sections["snapshot"]
    print(f" snapshot: save {s['save_us']:8.1f} us, load {s['load_us']:8.1f} us, "
          f"bit-identical={s['bit_identical']}  [{s['what']}]")
    s = sections["latency"]
    print(f"  latency: seq {s['sequential']['throughput_rps']:12.0f} rps -> "
          f"adaptive {s['adaptive']['throughput_rps']:12.0f} rps "
          f"({s['speedup']:.2f}x)  [{s['what']}]")
    s = sections["lsh"]
    print(f"      lsh: exact {s['exact_us']:10.1f} us vs lsh {s['lsh_us']:10.1f} us, "
          f"recall@5={s['recall_at_5']:.3f}, "
          f"candidates={s['candidate_fraction'] * 100:.1f}%  [{s['what']}]")
    s = sections["lsh_scale"]
    print(f"lsh_scale: exact {s['exact_us']:10.1f} us (forward "
          f"{s['exact_score_us']:.1f}) vs lsh "
          f"{s['lsh_us']:10.1f} us ({s['speedup']:.2f}x), "
          f"recall@5={s['recall_at_5']:.3f}, "
          f"candidates={s['candidate_fraction'] * 100:.2f}%  [{s['what']}]")
    s = sections["crossover"]
    print(f"crossover: small-L auto/best {s['small_L']['auto_vs_best']:.3f}, "
          f"large-L auto/best {s['large_L']['auto_vs_best']:.3f}  "
          f"[{s['what']}]")
    s = sections["burst"]
    print(f"    burst: poisson p99 {s['poisson']['latency_p99_ms']:.4f} ms vs "
          f"burst p99 {s['burst']['latency_p99_ms']:.4f} ms, "
          f"burst queue depth {s['burst']['max_queue_depth']}  [{s['what']}]")
    s = sections["swap"]
    g, rb = s["good_path"], s["rollback"]
    ratio = (f", swap-window/steady p99 {g['swap_p99_ratio']:.3f}"
             if "swap_p99_ratio" in g else "")
    print(f"     swap: {g['swaps']} committed / {g['rollbacks']} rolled back "
          f"/ {g['swap_failures']} failed, mis-versioned={g['mis_versioned']}, "
          f"shed={g['n_shed']}{ratio}; injected regression -> "
          f"{rb['rollbacks']} rollback(s), active v{rb['active_version']}  "
          f"[{s['what']}]")
    s = sections["tenants"]
    nn, sg, un = s["noisy_neighbor"], s["surge"], s["uniform"]
    print(f"  tenants: victim p99 {nn['victim_p99_solo_ms']:.4f} -> "
          f"{nn['victim_p99_contended_ms']:.4f} ms under 10x neighbor "
          f"(ratio {nn['isolation_ratio']:.2f}, "
          f"{nn['traced_bytes_per_request']:.0f} traced bytes/request, "
          f"{nn['queue_extends_per_request']:.3f} queue extends/request); "
          f"40x surge shed "
          f"{sg['aggressor_n_shed']} aggressor / {sg['victim_n_shed']} "
          f"victim; uniform split {un['throughput_ratio']:.3f}x single, "
          f"fairness {un['fairness']:.3f}  [{s['what']}]")
    s = sections["elastic"]
    tr, sv = s["training"], s["serving"]
    print(f"  elastic: train static/churned accuracy "
          f"{tr['quality_ratio']:.2f}x over {tr['n_applied']} applied "
          f"events ({tr['updates_merged']} merged / "
          f"{tr['updates_discarded']} discarded); serve p99 "
          f"{sv['steady_p99_ms']:.4f} -> {sv['churned_p99_ms']:.4f} ms "
          f"({sv['p99_ratio']:.2f}x), {sv['n_served']}/{sv['n_requests']} "
          f"served  [{s['what']}]")
    s = sections["replay"]
    print(f"   replay: {s['sim_events']} sim events for {s['n_requests']} "
          f"requests in {s['n_batches']} batches "
          f"({s['events_per_request']:.3f}/request), "
          f"{s['scoring_calls']} scoring calls "
          f"({s['scoring_calls_per_1k_requests']:.2f}/1k requests, "
          f"{s['scored_rows_per_request']:.3f} scored rows/request, "
          f"{s['lsh_scored_rows_per_request']:.3f} under lsh), "
          f"{s['push_calls_per_1k_requests']:.0f} push calls/1k requests, "
          f"{s['traced_bytes_per_request']:.0f} traced bytes/request, "
          f"{s['archive_lines_per_request']:.3f} archive lines/request, "
          f"{s['host_rps']:.0f} requests per host-second  [{s['what']}]")
    return {
        "benchmark": "serve",
        "mode": "smoke" if smoke else "full",
        "sections": sections,
    }


def check(results: dict) -> int:
    """CI gate: absolute floors (the simulated clock is machine-independent)."""
    smoke = results["mode"] == "smoke"
    floor = SPEEDUP_FLOOR_SMOKE if smoke else SPEEDUP_FLOOR_FULL
    failures = []
    s = results["sections"]["snapshot"]
    status = "ok" if s["bit_identical"] else "CORRUPT"
    print(f"check snapshot: bit-identical round-trip -> {status}")
    if not s["bit_identical"]:
        failures.append("snapshot")
    speedup = results["sections"]["latency"]["speedup"]
    status = "ok" if speedup >= floor else "REGRESSED"
    print(f"check latency: adaptive/sequential throughput {speedup:.2f}x "
          f"(floor {floor:.2f}x) -> {status}")
    if speedup < floor:
        failures.append("latency")
    recall = results["sections"]["lsh"]["recall_at_5"]
    status = "ok" if recall >= RECALL_FLOOR else "BELOW FLOOR"
    print(f"check lsh: recall@5 {recall:.3f} "
          f"(floor {RECALL_FLOOR:.2f}) -> {status}")
    if recall < RECALL_FLOOR:
        failures.append("lsh")
    s = results["sections"]["lsh_scale"]
    ratio = s["lsh_vs_forward"]
    status = "ok" if ratio <= LSH_VS_FORWARD_CEILING else "REGRESSED"
    print(f"check lsh_scale: batched LSH costs {ratio:.2f}x the dense "
          f"forward (ceiling {LSH_VS_FORWARD_CEILING:.2f}x; exact/LSH "
          f"{s['speedup']:.2f}x, not gated) -> {status}")
    if ratio > LSH_VS_FORWARD_CEILING:
        failures.append("lsh_scale")
    status = "ok" if s["recall_at_5"] >= RECALL_FLOOR else "BELOW FLOOR"
    print(f"check lsh_scale: recall@5 {s['recall_at_5']:.3f} "
          f"(floor {RECALL_FLOOR:.2f}) -> {status}")
    if s["recall_at_5"] < RECALL_FLOOR:
        failures.append("lsh_scale_recall")
    s = results["sections"]["crossover"]
    for name in ("small_L", "large_L"):
        ratio = s[name]["auto_vs_best"]
        status = "ok" if ratio >= CROSSOVER_FLOOR else "REGRESSED"
        print(f"check crossover: {name} auto/best {ratio:.3f} "
              f"(floor {CROSSOVER_FLOOR:.2f}) -> {status}")
        if ratio < CROSSOVER_FLOOR:
            failures.append(f"crossover_{name}")
    g = results["sections"]["swap"]["good_path"]
    swapped = g["swaps"] - g["rollbacks"]
    status = "ok" if swapped >= 1 else "NO SWAP"
    print(f"check swap: {swapped} committed-and-kept hot-swap(s) -> {status}")
    if swapped < 1:
        failures.append("swap_commit")
    clean = g["mis_versioned"] == 0 and g["n_shed"] == 0
    status = "ok" if clean else "DROPPED/MIXED"
    print(f"check swap: mis-versioned={g['mis_versioned']}, "
          f"shed={g['n_shed']} -> {status}")
    if not clean:
        failures.append("swap_requests")
    if "swap_p99_ratio" in g:
        ratio = g["swap_p99_ratio"]
        status = "ok" if ratio <= SWAP_P99_FACTOR else "REGRESSED"
        print(f"check swap: swap-window/steady p99 {ratio:.3f} "
              f"(ceiling {SWAP_P99_FACTOR:.2f}) -> {status}")
        if ratio > SWAP_P99_FACTOR:
            failures.append("swap_p99")
    rb = results["sections"]["swap"]["rollback"]
    rolled = (
        rb["rollbacks"] >= 1
        and rb["active_version"] == 1
        and rb["n_unserved"] == 0
    )
    status = "ok" if rolled else "NOT ROLLED BACK"
    print(f"check swap: injected regression -> {rb['rollbacks']} "
          f"rollback(s), active v{rb['active_version']}, "
          f"{rb['n_unserved']} unserved -> {status}")
    if not rolled:
        failures.append("swap_rollback")
    t = results["sections"]["tenants"]
    ratio = t["noisy_neighbor"]["isolation_ratio"]
    status = "ok" if ratio <= ISOLATION_FACTOR else "INTERFERED"
    print(f"check tenants: noisy-neighbor victim p99 ratio {ratio:.3f} "
          f"(ceiling {ISOLATION_FACTOR:.2f}) -> {status}")
    if ratio > ISOLATION_FACTOR:
        failures.append("tenants_isolation")
    traced = t["noisy_neighbor"]["traced_bytes_per_request"]
    status = "ok" if traced <= TENANTS_TRACED_BYTES_CEILING else "REGRESSED"
    print(f"check tenants: {traced:.0f} traced bytes per request "
          f"(ceiling {TENANTS_TRACED_BYTES_CEILING}) -> {status}")
    if traced > TENANTS_TRACED_BYTES_CEILING:
        failures.append("tenants_traced_bytes")
    extends = t["noisy_neighbor"]["queue_extends_per_request"]
    status = "ok" if extends <= TENANTS_EXTENDS_CEILING else "REGRESSED"
    print(f"check tenants: {extends:.3f} queue extends per request "
          f"(ceiling {TENANTS_EXTENDS_CEILING}) -> {status}")
    if extends > TENANTS_EXTENDS_CEILING:
        failures.append("tenants_queue_extends")
    sg = t["surge"]
    graded = sg["victim_n_shed"] == 0 and sg["aggressor_n_shed"] > 0
    status = "ok" if graded else "MIS-SHED"
    print(f"check tenants: 40x surge shed {sg['aggressor_n_shed']} "
          f"aggressor / {sg['victim_n_shed']} victim -> {status}")
    if not graded:
        failures.append("tenants_shed")
    tput = t["uniform"]["throughput_ratio"]
    status = "ok" if tput >= MT_THROUGHPUT_FLOOR else "REGRESSED"
    print(f"check tenants: uniform-split aggregate throughput {tput:.3f}x "
          f"single-tenant (floor {MT_THROUGHPUT_FLOOR:.2f}x) -> {status}")
    if tput < MT_THROUGHPUT_FLOOR:
        failures.append("tenants_throughput")
    e = results["sections"]["elastic"]
    train_cap = (ELASTIC_TRAIN_FACTOR_SMOKE if smoke
                 else ELASTIC_TRAIN_FACTOR_FULL)
    ratio = e["training"]["quality_ratio"]
    status = "ok" if ratio <= train_cap else "REGRESSED"
    print(f"check elastic: static/churned training accuracy {ratio:.3f}x "
          f"(ceiling {train_cap:.2f}x) -> {status}")
    if ratio > train_cap:
        failures.append("elastic_training")
    by_kind = e["training"]["by_kind"]
    churned_kinds = {"fail", "join", "throttle"} <= set(by_kind)
    status = "ok" if churned_kinds else "NO CHURN"
    print(f"check elastic: spot-churn delivered {by_kind} -> {status}")
    if not churned_kinds:
        failures.append("elastic_events")
    p99_cap = ELASTIC_P99_FACTOR_SMOKE if smoke else ELASTIC_P99_FACTOR_FULL
    ratio = e["serving"]["p99_ratio"]
    served = e["serving"]["n_served"] == e["serving"]["n_requests"]
    status = ("ok" if ratio <= p99_cap and served
              else ("DROPPED" if not served else "REGRESSED"))
    print(f"check elastic: churned/steady serve p99 {ratio:.3f}x "
          f"(ceiling {p99_cap:.2f}x), "
          f"{e['serving']['n_served']}/{e['serving']['n_requests']} served "
          f"-> {status}")
    if ratio > p99_cap or not served:
        failures.append("elastic_serving")
    per_request = results["sections"]["replay"]["events_per_request"]
    status = "ok" if per_request <= REPLAY_EVENTS_CEILING else "REGRESSED"
    print(f"check replay: {per_request:.3f} sim events per request "
          f"(ceiling {REPLAY_EVENTS_CEILING:.2f}) -> {status}")
    if per_request > REPLAY_EVENTS_CEILING:
        failures.append("replay_events")
    per_1k = results["sections"]["replay"]["scoring_calls_per_1k_requests"]
    status = "ok" if per_1k <= REPLAY_SCORING_CALLS_CEILING else "REGRESSED"
    print(f"check replay: {per_1k:.2f} scoring calls per 1k requests "
          f"(ceiling {REPLAY_SCORING_CALLS_CEILING:.0f}) -> {status}")
    if per_1k > REPLAY_SCORING_CALLS_CEILING:
        failures.append("replay_scoring_calls")
    scored = results["sections"]["replay"]["scored_rows_per_request"]
    status = "ok" if scored <= REPLAY_SCORED_ROWS_CEILING else "REGRESSED"
    print(f"check replay: {scored:.3f} scored rows per request "
          f"(ceiling {REPLAY_SCORED_ROWS_CEILING}) -> {status}")
    if scored > REPLAY_SCORED_ROWS_CEILING:
        failures.append("replay_scored_rows")
    scored = results["sections"]["replay"]["lsh_scored_rows_per_request"]
    status = "ok" if scored <= REPLAY_SCORED_ROWS_CEILING else "REGRESSED"
    print(f"check replay: {scored:.3f} LSH scored rows per request "
          f"(ceiling {REPLAY_SCORED_ROWS_CEILING}) -> {status}")
    if scored > REPLAY_SCORED_ROWS_CEILING:
        failures.append("replay_lsh_scored_rows")
    pushes = results["sections"]["replay"]["push_calls_per_1k_requests"]
    status = "ok" if pushes <= REPLAY_PUSH_CALLS_CEILING else "REGRESSED"
    print(f"check replay: {pushes:.0f} push calls per 1k requests "
          f"(ceiling {REPLAY_PUSH_CALLS_CEILING}) -> {status}")
    if pushes > REPLAY_PUSH_CALLS_CEILING:
        failures.append("replay_push_calls")
    traced = results["sections"]["replay"]["traced_bytes_per_request"]
    status = "ok" if traced <= REPLAY_TRACED_BYTES_CEILING else "REGRESSED"
    print(f"check replay: {traced:.0f} traced bytes per request "
          f"(ceiling {REPLAY_TRACED_BYTES_CEILING}) -> {status}")
    if traced > REPLAY_TRACED_BYTES_CEILING:
        failures.append("replay_traced_bytes")
    lines = results["sections"]["replay"]["archive_lines_per_request"]
    status = "ok" if lines <= REPLAY_ARCHIVE_LINES_CEILING else "REGRESSED"
    print(f"check replay: {lines:.3f} archive lines per request "
          f"(ceiling {REPLAY_ARCHIVE_LINES_CEILING}) -> {status}")
    if lines > REPLAY_ARCHIVE_LINES_CEILING:
        failures.append("replay_archive_lines")
    if failures:
        print(f"FAIL: serving regression in {failures}")
        return 1
    print("serving benchmark check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small/fast sizes")
    parser.add_argument("--out", type=Path, default=None,
                        help="write results JSON here")
    parser.add_argument("--check", action="store_true",
                        help="gate on the absolute floors (CI)")
    parser.add_argument("--registry", type=Path, default=None,
                        help="cross-run registry root: register this run's "
                             "results (tagged bench:serve)")
    args = parser.parse_args(argv)
    results = run(smoke=args.smoke)
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")
    rc = 0
    if args.check:
        rc = check(results)
    if args.registry is not None:
        # After the gate: failed runs register red and stay out of any
        # future history-derived baselines.
        from repro.registry import RunRegistry, record_bench_run

        run_id = record_bench_run(
            RunRegistry(args.registry), "serve", results,
            status="green" if rc == 0 else "red",
        )
        print(f"registered: {run_id} (registry {args.registry})")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
