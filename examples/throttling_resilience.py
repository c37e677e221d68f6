#!/usr/bin/env python
"""Fault injection: what happens when a GPU throttles mid-run?

The paper's heterogeneity is static-ish (slow-but-steady devices). This
study injects a *dynamic* fault — one GPU of an otherwise uniform server
loses 55% of its speed partway through training (thermal throttling /
noisy neighbor) — and compares how Adaptive SGD and Elastic SGD absorb it:

- **Elastic SGD** keeps assigning the victim the same batch count, so every
  mega-batch now waits for the throttled straggler;
- **Adaptive SGD**'s dynamic scheduling immediately routes more batches to
  the healthy GPUs, and Algorithm 1 shrinks the victim's batch size until
  update counts equalize again.

Run:  python examples/throttling_resilience.py [--budget 0.3]
"""

import argparse

from repro.baselines.elastic import ElasticSGDTrainer
from repro.core.adaptive import AdaptiveSGDTrainer
from repro.core.config import AdaptiveSGDConfig
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from repro.gpu.profiles import ThrottledProfile
from repro.utils.tables import format_series, format_table

VICTIM = 2
FACTOR = 0.45


def build_server(throttle_at: float):
    server = make_server(
        4, heterogeneity="uniform", seed=3,
        cost_params=GpuCostParams.tiny_model_profile(),
    )
    server.gpus[VICTIM].profile = ThrottledProfile(
        server.gpus[VICTIM].profile, events=[(throttle_at, FACTOR)]
    )
    return server


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, default=0.3)
    parser.add_argument("--dataset", default="amazon670k-bench")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    from repro.data.registry import load_task

    task = load_task(args.dataset, seed=args.seed)
    cfg = AdaptiveSGDConfig(b_max=128, base_lr=2.0, mega_batch_batches=40)
    throttle_at = args.budget / 3

    print(f"GPU {VICTIM} loses {1 - FACTOR:.0%} of its speed at "
          f"t = {throttle_at:.3f}s (budget {args.budget}s)\n")

    traces = {}
    for cls in (AdaptiveSGDTrainer, ElasticSGDTrainer):
        trainer = cls(
            task, build_server(throttle_at), cfg, hidden=(64,),
            init_seed=args.seed, data_seed=args.seed, eval_samples=512,
        )
        trace = trainer.run(time_budget_s=args.budget)
        traces[trace.algorithm] = trace

    adaptive = traces["Adaptive SGD"]
    print(format_series(
        {f"GPU {g}": adaptive.batch_size_series(g) for g in range(4)},
        title="Adaptive SGD — per-GPU batch size (watch the victim shrink)",
        xlabel="mega-batch", ylabel="batch size", max_points=14,
    ))

    print()
    rows = [
        [name, trace.best_accuracy, trace.total_epochs]
        for name, trace in traces.items()
    ]
    print(format_table(
        ["method", "best acc", "epochs in budget"],
        rows, title="absorbing the fault",
    ))
    a, e = traces["Adaptive SGD"], traces["Elastic SGD"]
    print(f"\nAdaptive processed {a.total_epochs / e.total_epochs - 1:+.1%} "
          f"more data than Elastic under the same fault.")


if __name__ == "__main__":
    main()
