"""FIG6 — Do batch size scaling and perturbation activate? (Figure 6a/6b).

Figure 6a: per-GPU batch size after every mega-batch. Expected shape: all
GPUs start at ``b_max``, the sizes fluctuate for the first mega-batches and
then converge to a limited per-GPU band (fast GPUs high, slow GPUs lower),
at which point all GPUs perform a synchronized number of updates.

Figure 6b: perturbation activation frequency. Expected shape: perturbation
fires at a very high fraction of the merges (fresh XML models are far below
the regularization threshold), confirming the mechanism is actually live.
"""

import numpy as np

from benchmarks.conftest import bench_budget, bench_seed
from repro.harness.figures import fig6_adaptivity
from repro.harness.report import render_fig6


def test_fig6_batch_scaling_and_perturbation(once):
    trace = once(
        fig6_adaptivity,
        "amazon670k-bench",
        n_gpus=4,
        time_budget_s=bench_budget(),
        seed=bench_seed(),
    )
    print()
    print(render_fig6(trace))

    history = [b.batch_sizes for b in trace.boundaries]
    assert len(history) >= 10, "need enough mega-batches to judge convergence"

    cfg = trace.metadata["config"]
    # Start: everyone at b_max (paper: initialized with the maximum value).
    assert history[0] == tuple([cfg.b_max] * 4)

    # Scaling activated: batch sizes moved away from b_max.
    assert any(size != cfg.b_max for sizes in history for size in sizes)

    # Convergence: the last third of the run varies less than the first third.
    arr = np.asarray(history, dtype=float)
    third = len(arr) // 3
    early_spread = arr[:third].std(axis=0).mean()
    late_spread = arr[-third:].std(axis=0).mean()
    assert late_spread <= early_spread + 1.0

    # Steady state brings update parity: staleness shrinks to <= 1 update.
    assert min(b.staleness for b in trace.boundaries[-third:]) <= 1

    # Figure 6b: perturbation fires at a very high frequency.
    assert trace.perturbation_frequency() > 0.8

    # Batch sizes always respect the paper's bounds.
    assert arr.min() >= cfg.b_min
    assert arr.max() <= cfg.b_max
