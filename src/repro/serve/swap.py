"""Continuous learning: the hot-swap protocol, as one sim process.

Given a :class:`~repro.serve.store.SnapshotStore`, the driver-level
:func:`swap_manager` process closes the train → serve loop under live
traffic:

1. *Poll* — between batches it polls the store for versions newer than the
   one serving (every :data:`POLL_S`, publish times on the sim clock, so a
   concurrently-trained schedule replays mid-serve).
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
   scored on a deterministic labeled probe block (:func:`canary_recall`,
   host-side, zero simulated time); a recall@k drop beyond
   :data:`CANARY_RECALL_DROP` — or a windowed post-swap p99 beyond
   ``canary_latency_factor ×`` the pre-swap p99 (:func:`latency_verdict`) —
   rolls the active pointer back, quarantines the bad version
   (``swap.rollback`` instant, ``rollbacks`` counter), and keeps serving
   the prior weights. The previous predictor is guarded from retirement
   until its canary resolves; retired versions free their predictors once
   their last pinned request completes.

The ``serve.swap`` spans + swap/rollback counters let ``repro analyze``
attribute any latency blip to the swap that caused it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ServeError, SnapshotError
from repro.perf.gather import CSR
from repro.serve.loadgen import nearest_rank_percentile
from repro.serve.predictor import Predictor
from repro.serve.run import ServeRun
from repro.serve.store import SnapshotStore
from repro.telemetry.events import (
    COUNTER_ROLLBACKS,
    COUNTER_SWAP_FAILURES,
    COUNTER_SWAPS,
    EVENT_SWAP_COMMIT,
    EVENT_SWAP_FAILED,
    EVENT_SWAP_ROLLBACK,
    SPAN_SERVE_SWAP,
)

__all__ = ["swap_manager", "canary_recall", "latency_verdict"]

#: Sim seconds between store polls (and latency-canary checks).
POLL_S = 1e-3
#: Probe queries for the post-swap recall canary.
CANARY_QUERIES = 64
#: Largest tolerated drop in labeled recall@k of the incoming version
#: versus the outgoing one; a larger drop rolls back.
CANARY_RECALL_DROP = 0.1
#: Completed requests needed on each side of a swap before the latency
#: canary is trusted.
CANARY_MIN_SAMPLES = 32


def canary_recall(
    pred: Predictor, X: CSR, Y: CSR, k: int, n_probe: int
) -> float:
    """Labeled recall@k of ``pred`` on the first ``n_probe`` rows of ``X``.

    Rows without a true label are skipped; no labeled row scores 0.
    """
    top = pred.topk(X[:n_probe], k)
    scores = []
    for i in range(n_probe):
        true = set(Y.indices[Y.indptr[i]:Y.indptr[i + 1]].tolist())
        if not true:
            continue
        hits = len(true & set(top[i].tolist()))
        scores.append(hits / min(k, len(true)))
    return float(np.mean(scores)) if scores else 0.0


def latency_verdict(
    pre: Sequence[float], post: Sequence[float], factor: float,
    min_samples: int,
) -> Optional[str]:
    """The rollback reason when post-swap p99 exceeds ``factor ×`` pre-swap.

    ``None`` — no rollback — when either side holds fewer than
    ``min_samples`` latencies (no verdict) or the post-swap p99 is within
    the factor.
    """
    if len(pre) < min_samples or len(post) < min_samples:
        return None
    pre_p99 = nearest_rank_percentile(pre, 99)
    post_p99 = nearest_rank_percentile(post, 99)
    if post_p99 > factor * pre_p99:
        return (
            f"post-swap p99 {post_p99:.6f}s beyond "
            f"{factor}x pre-swap p99 {pre_p99:.6f}s"
        )
    return None


def swap_manager(run: ServeRun, store: SnapshotStore):
    """Sim process: poll ``store`` and hot-swap each newer version in."""
    env, cfg, tel = run.env, run.config, run.telemetry
    seen = run.base_version
    run.admit_due()
    while not run.drained():
        next_version = store.poll(after=seen, now=env.now)
        if next_version is None:
            yield env.timeout(POLL_S)
            run.admit_due()
            continue
        seen = next_version  # never retry a version, even on failure
        prev_version = run.active_version
        prev_pred = run.predictors[prev_version]
        new_pred = _load(run, store, next_version, prev_pred)
        if new_pred is None:
            continue
        # -- staged warming, off the dispatch path --------------------------
        run.protected.add(prev_version)
        t_warm_start = env.now
        cost_model = run.server.gpus[0].cost_model
        warm_s = cost_model.model_transfer_time(new_pred.snapshot.state.nbytes)
        if cfg.scoring in ("lsh", "auto"):
            new_pred.rebuild_lsh()
            warm_s += cost_model.lsh_rebuild_time(
                run.n_labels,
                new_pred.arch.layer_dims[-2],
                n_tables=new_pred.lsh_tables,
                n_bits=new_pred.lsh_bits,
                n_active_gpus=run.server.n_gpus,
            )
        with tel.span(
            SPAN_SERVE_SWAP,
            version_from=prev_version, version_to=next_version,
        ):
            yield env.timeout(warm_s)
        # Arrivals up to the commit instant pin to the outgoing version.
        run.admit_due()
        # -- atomic commit between batches ----------------------------------
        run.predictors[next_version] = new_pred
        run.pins.setdefault(next_version, 0)
        run.active_version = next_version
        run.n_swaps += 1
        tel.counter(COUNTER_SWAPS, 1)
        tel.instant(
            EVENT_SWAP_COMMIT,
            version=next_version, previous=prev_version, warm_s=warm_s,
        )
        record = {
            "version_from": prev_version,
            "version_to": next_version,
            "t_warm_start": t_warm_start,
            "t_commit": env.now,
            "warm_s": warm_s,
            "rolled_back": False,
        }
        run.swap_records.append(record)
        # -- post-swap canaries ---------------------------------------------
        reason = _recall_canary(run, prev_pred, new_pred, record)
        if reason is None and cfg.canary_latency_factor is not None:
            reason = yield from _latency_canary(run, env.now)
        run.protected.discard(prev_version)
        if reason is None:
            run.retire_version(prev_version)
        else:
            _rollback(run, record, reason)


def _load(
    run: ServeRun, store: SnapshotStore, version: int, prev_pred: Predictor
) -> Optional[Predictor]:
    """Load + validate ``version`` host-side; ``None`` when it is unusable.

    A failure never interrupts serving — it is recorded and the prior
    version stays active.
    """
    try:
        return prev_pred.spawn(store.load(version))
    except (SnapshotError, ServeError) as exc:
        run.n_swap_failures += 1
        run.telemetry.counter(COUNTER_SWAP_FAILURES, 1)
        run.telemetry.instant(
            EVENT_SWAP_FAILED, version=version, error=str(exc)
        )
        run.swap_records.append({
            "version_to": version,
            "t": run.env.now,
            "failed": True,
            "error": str(exc),
        })
        return None


def _recall_canary(
    run: ServeRun, prev_pred: Predictor, new_pred: Predictor, record: dict
) -> Optional[str]:
    """The rollback reason when labeled recall@k dropped past tolerance."""
    if run.canary_labels is None:
        return None
    n_probe = min(CANARY_QUERIES, run.X_queries.shape[0])
    probe = (run.X_queries, run.canary_labels, run.k, n_probe)
    prev_recall = canary_recall(prev_pred, *probe)
    new_recall = canary_recall(new_pred, *probe)
    record["canary_recall_prev"] = prev_recall
    record["canary_recall_new"] = new_recall
    if new_recall < prev_recall - CANARY_RECALL_DROP:
        return (
            f"canary recall@{run.k} dropped {prev_recall:.3f} -> "
            f"{new_recall:.3f} (tolerance {CANARY_RECALL_DROP})"
        )
    return None


def _latency_canary(run: ServeRun, t_commit: float):
    """Wait for a post-swap latency window; return the rollback reason."""
    pre = _latencies(run.requests, t_commit, post=False)
    if len(pre) < CANARY_MIN_SAMPLES:
        return None
    target = run.n_completed + CANARY_MIN_SAMPLES
    while run.n_completed < target and not run.drained():
        yield run.env.timeout(POLL_S)
        run.admit_due()
    post = _latencies(run.requests, t_commit, post=True)
    return latency_verdict(
        pre, post, run.config.canary_latency_factor, CANARY_MIN_SAMPLES
    )


def _latencies(requests, t_commit: float, *, post: bool) -> np.ndarray:
    """Latencies of the requests done after ``t_commit`` (``post``), or at or
    before it, from the stamps :meth:`ServeRun.complete` writes (an
    unstamped NaN compares false either way)."""
    done = requests.done
    window = done > t_commit if post else done <= t_commit
    return done[window] - requests.arrival[window]


def _rollback(run: ServeRun, record: dict, reason: str) -> None:
    """Restore the previous version and quarantine the one that failed.

    Already-admitted requests stay pinned to the bad version (they drain
    against it — pinning outranks quarantine), but nothing new admits.
    """
    tel = run.telemetry
    bad, restored = record["version_to"], record["version_from"]
    run.active_version = restored
    run.quarantined.add(bad)
    record["rolled_back"] = True
    record["rollback_reason"] = reason
    run.n_rollbacks += 1
    tel.counter(COUNTER_ROLLBACKS, 1)
    tel.instant(
        EVENT_SWAP_ROLLBACK, version=bad, restored=restored, reason=reason,
    )
    run.retire_version(bad)
