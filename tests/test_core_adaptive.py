"""Tests for repro.core.adaptive — the full Adaptive SGD trainer."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSGDTrainer
from repro.core.config import AdaptiveSGDConfig
from repro.core.staleness import staleness_bound
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams


def run_adaptive(micro_task, server, budget=0.03, **cfg_kwargs):
    defaults = dict(b_max=64, base_lr=0.2, mega_batch_batches=16)
    defaults.update(cfg_kwargs)
    cfg = AdaptiveSGDConfig(**defaults)
    trainer = AdaptiveSGDTrainer(
        micro_task, server, cfg, hidden=(32,), init_seed=7, data_seed=3,
        eval_samples=128,
    )
    return trainer.run(time_budget_s=budget), cfg


class TestAdaptiveTrainer:
    def test_trace_structure(self, micro_task, het_server):
        trace, _ = run_adaptive(micro_task, het_server)
        assert trace.algorithm == "Adaptive SGD"
        assert trace.n_devices == 4
        assert len(trace) >= 2  # initial point + >= 1 mega-batch
        n_boundaries = len(trace) - 1
        assert len(trace.batch_size_history) == n_boundaries
        assert len(trace.perturbation_history) == n_boundaries
        assert len(trace.merge_branch_history) == n_boundaries
        assert len(trace.staleness_history) == n_boundaries

    def test_times_strictly_increasing(self, micro_task, het_server):
        trace, _ = run_adaptive(micro_task, het_server)
        times = [p.time_s for p in trace.points]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_learning_happens(self, micro_task, het_server):
        trace, _ = run_adaptive(micro_task, het_server, budget=0.05)
        assert trace.best_accuracy > trace.points[0].accuracy + 0.15

    def test_initial_batch_sizes_at_b_max(self, micro_task, het_server):
        trace, cfg = run_adaptive(micro_task, het_server)
        assert trace.batch_size_history[0] == tuple([cfg.b_max] * 4)

    def test_batch_sizes_respect_bounds(self, micro_task, het_server):
        trace, cfg = run_adaptive(micro_task, het_server, budget=0.05)
        for sizes in trace.batch_size_history:
            for size in sizes:
                assert cfg.b_min <= size <= cfg.b_max

    def test_batch_scaling_activates_on_heterogeneous_server(
        self, micro_task, het_server
    ):
        # Needs enough batches per GPU per mega-batch (>= ~1/gap) for the
        # speed skew to produce update imbalance; 32 batches over 4 GPUs
        # with a 32% gap guarantees it.
        trace, cfg = run_adaptive(
            micro_task, het_server, budget=0.1, mega_batch_batches=32
        )
        assert any(
            sizes != tuple([cfg.b_max] * 4)
            for sizes in trace.batch_size_history
        )

    def test_staleness_within_analytic_bound(self, micro_task, het_server):
        trace, cfg = run_adaptive(micro_task, het_server, budget=0.05)
        bound = staleness_bound(cfg.mega_batch_size, cfg.b_min, cfg.b_max, 4)
        assert max(trace.staleness_history) <= bound

    def test_deterministic_replay(self, micro_task):
        def one_run():
            server = make_server(
                4, seed=5, cost_params=GpuCostParams.tiny_model_profile()
            )
            trace, _ = run_adaptive(micro_task, server, budget=0.02)
            return (
                [p.accuracy for p in trace.points],
                trace.batch_size_history,
                [p.time_s for p in trace.points],
            )

        assert one_run() == one_run()

    def test_uniform_server_keeps_equal_batches(self, micro_task, uniform_server):
        """Control: with identical GPUs there is nothing to adapt to."""
        trace, cfg = run_adaptive(micro_task, uniform_server, budget=0.03)
        for sizes in trace.batch_size_history:
            assert max(sizes) - min(sizes) <= cfg.beta  # essentially flat

    def test_single_gpu_runs(self, micro_task):
        server = make_server(
            1, seed=5, cost_params=GpuCostParams.tiny_model_profile()
        )
        trace, _ = run_adaptive(micro_task, server, budget=0.05)
        assert trace.n_devices == 1
        assert all(len(s) == 1 for s in trace.batch_size_history)
        assert all(s == 0 for s in trace.staleness_history)
        assert trace.best_accuracy > 0.2

    def test_devices_record_utilization(self, micro_task, het_server):
        run_adaptive(micro_task, het_server)
        assert all(g.busy_seconds > 0 for g in het_server.gpus)
        assert all(g.steps_executed > 0 for g in het_server.gpus)

    def test_gpu_epoch_counts_reflect_speed(self, micro_task, het_server):
        """Dynamic scheduling: faster GPUs execute more steps overall."""
        run_adaptive(
            micro_task, het_server, budget=0.05, enable_batch_scaling=False
        )
        speeds = [g.profile.base for g in het_server.gpus]
        steps = [g.steps_executed for g in het_server.gpus]
        fastest = int(np.argmax(speeds))
        slowest = int(np.argmin(speeds))
        assert steps[fastest] >= steps[slowest]

    def test_perturbation_history_records_fires(self, micro_task, het_server):
        trace, _ = run_adaptive(micro_task, het_server, budget=0.03)
        assert any(trace.perturbation_history)  # fresh model is regularized

    def test_metadata_recorded(self, micro_task, het_server):
        trace, cfg = run_adaptive(micro_task, het_server)
        assert trace.metadata["config"] is cfg
        assert trace.metadata["allreduce"] == "ring"
        assert trace.metadata["n_params"] > 0


class TestDegenerateConfigs:
    """Configurations where Algorithm 1 has nothing to move: one GPU (every
    ``u_i`` is the mean) and ``b_min == b_max`` (every proposal clamps)."""

    @pytest.mark.parametrize(
        "n_gpus, pinned", [(1, False), (1, True), (4, True)]
    )
    def test_batch_and_lr_hold_at_b_max(
        self, micro_task, monkeypatch, n_gpus, pinned
    ):
        import repro.core.adaptive as adaptive

        lrs = []

        def recording_sgd_step(replica, grad, lr):
            lrs.append(lr)
            return sgd_step(replica, grad, lr)

        sgd_step = adaptive.sgd_step
        monkeypatch.setattr(adaptive, "sgd_step", recording_sgd_step)
        server = make_server(
            n_gpus, seed=5, cost_params=GpuCostParams.tiny_model_profile()
        )
        b_min = 64 if pinned else None
        trace, cfg = run_adaptive(
            micro_task, server, budget=0.05, b_min=b_min
        )
        assert cfg.b_min == (64 if pinned else 8)
        assert len(trace.batch_size_history) >= 3
        assert set(trace.batch_size_history) == {(cfg.b_max,) * n_gpus}
        assert lrs and set(lrs) == {cfg.base_lr}
        # Checkpoint 0 has no loss yet (NaN); every later one is finite.
        assert all(
            np.isfinite(p.loss) and np.isfinite(p.accuracy)
            for p in trace.points[1:]
        )
        assert trace.best_accuracy > trace.points[0].accuracy
