"""ABL — Ablations of Adaptive SGD's design choices (DESIGN.md §5).

Not a paper artifact: these benches quantify each mechanism's contribution
on the 4-GPU heterogeneous server, under otherwise identical conditions.

Variants (from :func:`repro.harness.sweep.ablation_grid`):

- ``full``                — the complete algorithm;
- ``no-perturbation``     — Algorithm 2 without the ±δ weight perturbation;
- ``paper-denormalized``  — perturbation with the paper-literal denormalized
                            weights (quantifies the inflation discussed in
                            ``repro.core.merging``);
- ``no-batch-scaling``    — Algorithm 1 disabled (static per-GPU batches);
- ``uniform-merge``       — elastic-style equal-weight merging;
- ``no-momentum``         — γ = 0 in the global update;
- ``updates-times-batch`` — the §III-B alternative weighting.

Plus the β and δ sweeps and the learning-rate grid used to pick the
per-dataset defaults.
"""

import pytest

from benchmarks.conftest import bench_budget, bench_seed
from repro.harness.experiment import default_config_for
from repro.harness.sweep import ablation_grid, sweep
from repro.utils.tables import format_table

DATASET = "amazon670k-bench"


def _summary_rows(results):
    rows = []
    for name, trace in results.items():
        rows.append([
            name,
            trace.best_accuracy,
            trace.final_accuracy,
            trace.total_epochs,
            trace.perturbation_frequency(),
        ])
    return rows


def test_ablation_grid(once):
    base = default_config_for(DATASET)
    results = once(
        ablation_grid,
        base,
        dataset=DATASET,
        n_gpus=4,
        time_budget_s=bench_budget(),
        seed=bench_seed(),
        eval_samples=512,
    )
    print()
    print(format_table(
        ["variant", "best acc", "final acc", "epochs", "perturb freq"],
        _summary_rows(results),
        title=f"Ablations — {DATASET}, 4 heterogeneous GPUs",
    ))
    full = results["full"]
    # Batch scaling is load-bearing: removing it costs late accuracy.
    assert full.final_accuracy >= results["no-batch-scaling"].final_accuracy
    # Momentum is load-bearing.
    assert full.best_accuracy >= results["no-momentum"].best_accuracy
    # Renormalized perturbation >= paper-literal denormalized weights.
    assert full.best_accuracy >= results["paper-denormalized"].best_accuracy - 0.02


def test_beta_sweep(once):
    """β controls how aggressively batch sizes chase update parity."""
    base = default_config_for(DATASET)
    results = once(
        sweep,
        base,
        "beta",
        [1.0, 4.0, 8.0, 16.0, 32.0],
        dataset=DATASET,
        n_gpus=4,
        time_budget_s=bench_budget() * 0.7,
        seed=bench_seed(),
        eval_samples=512,
    )
    print()
    rows = [
        [beta, tr.best_accuracy,
         max((b.staleness for b in tr.boundaries), default=0),
         tr.total_epochs]
        for beta, tr in results.items()
    ]
    print(format_table(
        ["beta", "best acc", "max staleness", "epochs"],
        rows, title="beta sweep",
    ))
    # Some scaling beats none only if it actually reduces staleness;
    # at minimum every run stays within bounds and trains.
    for trace in results.values():
        assert trace.best_accuracy > 0.2


def test_delta_sweep(once):
    """δ perturbation factor sweep (paper default 0.1)."""
    base = default_config_for(DATASET)
    results = once(
        sweep,
        base,
        "delta",
        [0.0, 0.05, 0.1, 0.2],
        dataset=DATASET,
        n_gpus=4,
        time_budget_s=bench_budget() * 0.7,
        seed=bench_seed(),
        eval_samples=512,
    )
    print()
    print(format_table(
        ["delta", "best acc", "perturb freq"],
        [[d, tr.best_accuracy, tr.perturbation_frequency()]
         for d, tr in results.items()],
        title="delta sweep",
    ))
    for trace in results.values():
        assert trace.best_accuracy > 0.2


def test_learning_rate_grid(once):
    """The §V-A grid that selected the per-dataset base learning rate."""
    base = default_config_for(DATASET)
    results = once(
        sweep,
        base,
        "base_lr",
        [0.02, 0.2, 2.0, 20.0],
        dataset=DATASET,
        n_gpus=4,
        time_budget_s=bench_budget() * 0.7,
        seed=bench_seed(),
        eval_samples=512,
    )
    print()
    print(format_table(
        ["base_lr", "best acc", "final acc"],
        [[lr, tr.best_accuracy, tr.final_accuracy]
         for lr, tr in results.items()],
        title="learning-rate grid (powers of 10 around the default)",
    ))
    best_lr = max(results, key=lambda lr: results[lr].best_accuracy)
    assert best_lr == pytest.approx(base.base_lr)
