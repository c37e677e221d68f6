#!/usr/bin/env python
"""Quickstart: train a sparse XML model with Adaptive SGD on 4 virtual GPUs.

This is the smallest end-to-end use of the library:

1. generate a synthetic XML task shaped like the paper's Amazon-670k;
2. build a heterogeneous 4-GPU virtual server (the paper's testbed);
3. train with Adaptive SGD for a fixed simulated time budget;
4. inspect the trace: accuracy curve, adaptive batch sizes, staleness.

Run:  python examples/quickstart.py [--budget 0.2] [--gpus 4]
"""

import argparse

from repro import AdaptiveSGDConfig, AdaptiveSGDTrainer, load_task, make_server
from repro.gpu.cost import GpuCostParams
from repro.utils.tables import format_kv, format_series


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, default=0.2,
                        help="simulated seconds of training")
    parser.add_argument("--gpus", type=int, default=4)
    parser.add_argument("--dataset", default="amazon670k-bench")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"Generating {args.dataset} ...")
    task = load_task(args.dataset, seed=args.seed)
    print(format_kv(task.describe()))

    # The paper's testbed: heterogeneous same-model GPUs (gap up to 32%),
    # with the cost profile scaled to our benchmark-size models.
    server = make_server(
        args.gpus, seed=args.seed,
        cost_params=GpuCostParams.tiny_model_profile(),
    )
    print(f"\nGPU speed multipliers at t=0: "
          f"{[round(s, 3) for s in server.speeds_at(0.0)]}")

    config = AdaptiveSGDConfig(b_max=128, base_lr=0.4, mega_batch_batches=40)
    trainer = AdaptiveSGDTrainer(
        task, server, config, hidden=(64,), init_seed=args.seed,
        data_seed=args.seed, eval_samples=512,
    )
    print(f"\nTraining for {args.budget} simulated seconds ...")
    trace = trainer.run(time_budget_s=args.budget)

    print(format_series(
        {trace.label(): trace.series("time", "accuracy")},
        title="\naccuracy vs simulated time",
        xlabel="sim s", ylabel="P@1", max_points=10,
    ))
    print(format_kv({
        "best top-1 accuracy": trace.best_accuracy,
        "epochs completed": trace.total_epochs,
        "mega-batches (merges)": len(trace.boundaries),
        "perturbation frequency": trace.perturbation_frequency(),
        "max replica staleness": max(
            (b.staleness for b in trace.boundaries), default=0
        ),
        "final per-GPU batch sizes": str(trace.boundaries[-1].batch_sizes),
    }))
    for gpu in server.gpus:
        util = gpu.utilization(trace.total_time)
        print(f"{gpu.name}: {gpu.steps_executed} steps, "
              f"utilization {util:.0%}")


if __name__ == "__main__":
    main()
