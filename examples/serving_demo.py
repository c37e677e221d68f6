#!/usr/bin/env python
"""The train → deploy → keep-learning loop, through ``repro.api``.

The same amortization argument the paper makes for training mega-batches
(Figure 6a) applies to inference: a batch-1 dispatch pays the full fixed
launch + transfer overhead per request, so coalescing queued queries into
micro-batches multiplies throughput. This demo walks the whole loop:

1. **train + snapshot** — a short adaptive run on `micro`, persisted as a
   versioned snapshot (JSON header + bit-identical npz);
2. **sequential vs adaptive** — the same saturating Poisson request
   stream served batch-by-batch vs through the per-device adaptive batch
   sizer (`b ← b + β·b·(target − observed)/target` against a latency SLO);
3. **burst absorption** — a 4x hot/cold arrival pattern at the same
   average rate: watch the cap grow inside bursts and shrink after;
4. **the LSH dial** — the SLIDE-style candidates-only path vs exact
   top-k: recall@5 traded against per-query work;
5. **continuous learning** — a training session publishes checkpoints
   into a snapshot store on the sim clock; a serving run replays that
   publish schedule and hot-swaps each version in mid-traffic (warming
   off the dispatch path, per-request pinning, labeled recall canary).

Every engine is built through :func:`repro.api.make_engine` — the one
validated front door for serving, mirroring ``make_trainer``.

Run:  python examples/serving_demo.py [--budget 0.2] [--requests 1500]
"""

import argparse
import tempfile
from pathlib import Path

from repro.api import make_engine, make_trainer
from repro.data.registry import load_task
from repro.harness.experiment import ExperimentSpec
from repro.serve import (
    LoadSpec,
    ModelSnapshot,
    SnapshotStore,
    generate_arrivals,
    sample_query_rows,
)
from repro.serve.loadgen import service_time_s

N_GPUS = 2


def train_snapshot(workdir: Path, budget: float) -> ModelSnapshot:
    spec = ExperimentSpec(
        dataset="micro", gpu_counts=(N_GPUS,), time_budget_s=budget,
    )
    trainer = make_trainer("adaptive", spec)
    trace = trainer.run(time_budget_s=budget)
    header = trainer.save_snapshot(
        workdir / "demo-model", final_accuracy=trace.final_accuracy
    )
    print(f"trained to accuracy {trace.final_accuracy:.3f}; "
          f"snapshot at {header}")
    snapshot = ModelSnapshot.load(header)
    print(f"snapshot header: {snapshot.describe()}\n")
    return snapshot


def report_line(tag: str, result) -> None:
    print(f"  {tag:<12} {result.throughput_rps:12.0f} rps   "
          f"p50 {result.percentile(50) * 1e3:8.4f} ms   "
          f"p99 {result.percentile(99) * 1e3:8.4f} ms   "
          f"mean batch {result.mean_batch_size:6.2f}   "
          f"queue depth {result.max_queue_depth}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, default=0.2,
                        help="training budget in simulated seconds")
    parser.add_argument("--requests", type=int, default=1500)
    args = parser.parse_args()

    task = load_task("micro", seed=0)
    with tempfile.TemporaryDirectory(prefix="serving-demo-") as tmp:
        snapshot = train_snapshot(Path(tmp), args.budget)

    # A saturating load: ~10x what batch-1 dispatch can sustain, so the
    # fixed per-dispatch overhead (not the offered rate) is the bottleneck.
    probe = make_engine(snapshot, n_gpus=N_GPUS)
    rate = 10.0 * N_GPUS / service_time_s(probe.predictor, probe.server,
                                          task.test.X)
    rows = sample_query_rows(task.test.X.shape[0], args.requests, seed=0)

    print(f"-- sequential vs adaptive ({args.requests} Poisson requests "
          f"at {rate:.0f} rps on {N_GPUS} GPUs) --")
    load = LoadSpec(n_requests=args.requests, rate_rps=rate, seed=0)
    arrivals = generate_arrivals(load)
    results = {}
    for mode in ("sequential", "adaptive"):
        engine = make_engine(snapshot, mode=mode, n_gpus=N_GPUS)
        results[mode] = engine.serve(
            task.test.X, arrivals, k=5, row_indices=rows
        )
        report_line(mode, results[mode])
    speedup = (results["adaptive"].throughput_rps
               / results["sequential"].throughput_rps)
    print(f"  micro-batching amortizes the fixed dispatch overhead: "
          f"{speedup:.1f}x throughput\n")

    print("-- burst absorption (same average rate, 4x hot episodes) --")
    for pattern in ("poisson", "burst"):
        load = LoadSpec(
            n_requests=args.requests, rate_rps=rate / 4.0,
            pattern=pattern, seed=1,
        )
        engine = make_engine(snapshot, mode="adaptive", n_gpus=N_GPUS)
        result = engine.serve(
            task.test.X, generate_arrivals(load), k=5, row_indices=rows
        )
        report_line(pattern, result)
    print()

    print("-- the LSH dial (SLIDE-style candidates-only scoring) --")
    engine = make_engine(snapshot, mode="adaptive", scoring="lsh",
                         n_gpus=N_GPUS)
    predictor = engine.predictor
    sample = task.test.X[rows[:256]]
    predictor.rebuild_lsh()
    counts = predictor.candidate_counts(sample)
    recall = predictor.recall_at_k(sample, 5)
    print(f"  candidates/query: {counts.mean():.1f} of "
          f"{predictor.arch.n_labels} labels "
          f"({100 * counts.mean() / predictor.arch.n_labels:.0f}%)")
    print(f"  recall@5 vs exact top-5: {recall:.3f}")
    load = LoadSpec(n_requests=args.requests, rate_rps=rate, seed=2)
    result = engine.serve(
        task.test.X, generate_arrivals(load), k=5, row_indices=rows
    )
    report_line("adaptive+lsh", result)
    print()

    print("-- continuous learning (publish mid-serve, hot-swap, canary) --")
    with tempfile.TemporaryDirectory(prefix="serving-demo-store-") as tmp:
        store = SnapshotStore(tmp)
        spec = ExperimentSpec(
            dataset="micro", gpu_counts=(N_GPUS,), time_budget_s=args.budget,
        )
        trainer = make_trainer("adaptive", spec)
        # Checkpoint-aligned publishing: ~5 versions over the budget,
        # stamped with their sim publish times.
        trainer.publish_snapshot(store, every_s=args.budget / 5.0)
        trainer.run(time_budget_s=args.budget)
        published = ", ".join(
            f"v{e.version}@{e.published_s:.3f}s" for e in store.entries
        )
        print(f"  published: {published}")
        # Serving from the store directory auto-subscribes for hot-swaps;
        # the arrival window spans the publish schedule so every later
        # version lands mid-traffic.
        engine = make_engine(tmp, mode="adaptive", n_gpus=N_GPUS)
        span = store.entries[-1].published_s * 1.2
        load = LoadSpec(
            n_requests=args.requests,
            rate_rps=args.requests / span, seed=3,
        )
        result = engine.serve(
            task.test.X, generate_arrivals(load), k=5, row_indices=rows,
            canary_labels=task.test.Y,
        )
        report_line("hot-swap", result)
        served = " ".join(
            f"v{v}={n}" for v, n in sorted(result.versions_served.items())
        )
        print(f"  swaps: {result.n_swaps} committed, "
              f"{result.n_rollbacks} rolled back, "
              f"{result.n_swap_failures} failed; "
              f"mis-versioned batches: {result.mis_versioned}")
        print(f"  versions served: {served}")
        for swap in result.swaps:
            if "canary_recall_new" in swap:
                print(f"  canary recall@5: v{swap['version_from']} "
                      f"{swap['canary_recall_prev']:.3f} -> "
                      f"v{swap['version_to']} "
                      f"{swap['canary_recall_new']:.3f}")


if __name__ == "__main__":
    main()
