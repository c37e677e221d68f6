"""Tests for AdaptiveSGDTrainer's optional machinery: the scaling governor,
and the merge collective the trainer prices (a multi-stream ring; the
other all-reduce schedules are swapped in on the built trainer here)."""

import numpy as np
import pytest

from repro.comm.halving_doubling import HalvingDoublingAllReduce
from repro.comm.tree import TreeAllReduce
from repro.core.adaptive import AdaptiveSGDTrainer
from repro.core.config import AdaptiveSGDConfig
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams


def run(micro_task, server, budget=0.05, allreduce=None, **trainer_kwargs):
    cfg = AdaptiveSGDConfig(b_max=64, base_lr=0.2, mega_batch_batches=16)
    trainer = AdaptiveSGDTrainer(
        micro_task, server, cfg, hidden=(32,), init_seed=7, data_seed=3,
        eval_samples=64, **trainer_kwargs,
    )
    if allreduce is not None:
        trainer.allreduce = allreduce
    return trainer.run(time_budget_s=budget)


class TestGovernor:
    def test_governor_run_completes_and_learns(self, micro_task, het_server):
        trace = run(micro_task, het_server, governor=True)
        assert trace.best_accuracy > trace.points[0].accuracy

    def test_governor_skips_scaling_at_steady_state(self, micro_task):
        """On uniform hardware the system is stable immediately, so the
        governor must stretch the scaling interval — observable through the
        scheduler's boundary reports."""
        server = make_server(
            4, heterogeneity="uniform", seed=5,
            cost_params=GpuCostParams.tiny_model_profile(),
        )
        cfg = AdaptiveSGDConfig(b_max=64, base_lr=0.2, mega_batch_batches=16)
        # Use the scheduler directly for a deterministic boundary count.
        from repro.core.scheduler import DynamicScheduler

        sched = DynamicScheduler(
            micro_task.train, cfg, 4, seed=0, use_governor=True
        )
        ran = []
        for _ in range(12):
            while True:
                for gpu in range(4):
                    batch = sched.try_dispatch(gpu)
                    if batch is None:
                        break
                    sched.record_completion(gpu)
                else:
                    continue
                break
            ran.append(sched.mega_batch_boundary().scaling_ran)
        assert all(ran[:4])          # full rate until the window fills
        assert not all(ran[4:])      # backed off once stable

    def test_no_governor_scales_every_boundary(self, micro_task, het_server):
        from repro.core.scheduler import DynamicScheduler

        cfg = AdaptiveSGDConfig(b_max=64, base_lr=0.2, mega_batch_batches=8)
        sched = DynamicScheduler(
            micro_task.train, cfg, 2, seed=0, use_governor=False
        )
        for _ in range(6):
            while True:
                batch = sched.try_dispatch(0)
                if batch is None:
                    break
                sched.record_completion(0)
            assert sched.mega_batch_boundary().scaling_ran


class TestPluggableAllReduce:
    @pytest.mark.parametrize("algo", [TreeAllReduce(), HalvingDoublingAllReduce()])
    def test_alternative_collectives_work(self, micro_task, het_server, algo):
        trace = run(micro_task, het_server, allreduce=algo, budget=0.03)
        assert trace.metadata["allreduce"] == algo.name
        assert len(trace) >= 2
        assert trace.best_accuracy > 0.1

    def test_collective_choice_does_not_change_numerics(self, micro_task):
        """Merging is numerically equivalent across schedules, so only the
        *times* may differ — accuracies at matching checkpoints must agree."""
        def one(algo):
            server = make_server(
                4, seed=5, cost_params=GpuCostParams.tiny_model_profile()
            )
            return run(micro_task, server, allreduce=algo, budget=0.03)

        a = one(TreeAllReduce())
        b = one(HalvingDoublingAllReduce())
        n = min(len(a.points), len(b.points))
        accs_a = [p.accuracy for p in a.points[:n]]
        accs_b = [p.accuracy for p in b.points[:n]]
        assert accs_a == pytest.approx(accs_b, abs=0.05)

    def test_collective_crossover_visible_to_trainers(self, het_server):
        """What a trainer pays per merge follows the small/large-message
        crossover: tree wins for tiny replicas (fewer latency terms), the
        multi-stream ring wins at XML-model scale."""
        from repro.comm.ring import RingAllReduce

        topo = het_server.topology
        tiny, big = 40_000, 4_000_000
        ring = RingAllReduce(4)
        tree = TreeAllReduce()
        assert tree.time_seconds(tiny, topo).total_s < ring.time_seconds(
            tiny, topo
        ).total_s
        assert ring.time_seconds(big, topo).total_s < tree.time_seconds(
            big, topo
        ).total_s
