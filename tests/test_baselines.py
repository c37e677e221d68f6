"""Tests for the baseline trainers (elastic, sync/TF, CROSSBOW, async, minibatch)."""

import numpy as np
import pytest

import repro.baselines.crossbow as crossbow
import repro.baselines.sync_sgd as sync_sgd
from repro.baselines.async_sgd import AsyncSGDTrainer
from repro.baselines.crossbow import CrossbowTrainer
from repro.baselines.elastic import ElasticSGDTrainer
from repro.baselines.minibatch import MiniBatchSGDTrainer
from repro.baselines.sync_sgd import FRAMEWORK_OVERHEAD, SyncSGDTrainer
from repro.core.adaptive import AdaptiveSGDTrainer
from repro.core.config import AdaptiveSGDConfig
from repro.elastic import ClusterMembership
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from repro.harness.trainer_base import TrainerBase
from repro.sparse.mlp import SparseMLP


def cfg(**kwargs):
    defaults = dict(b_max=64, base_lr=0.2, mega_batch_batches=16)
    defaults.update(kwargs)
    return AdaptiveSGDConfig(**defaults)


def fresh_server(n=4):
    return make_server(
        n, seed=5, cost_params=GpuCostParams.tiny_model_profile()
    )


def run(cls, micro_task, budget=0.04, n=4, **trainer_kwargs):
    trainer = cls(
        micro_task, fresh_server(n), cfg(), hidden=(32,), init_seed=7,
        data_seed=3, eval_samples=128, **trainer_kwargs,
    )
    return trainer.run(time_budget_s=budget)


ALL_TRAINERS = [
    ElasticSGDTrainer,
    SyncSGDTrainer,
    CrossbowTrainer,
    AsyncSGDTrainer,
    MiniBatchSGDTrainer,
]


@pytest.mark.parametrize("cls", ALL_TRAINERS)
class TestCommonBehaviour:
    def test_produces_monotone_time_trace(self, cls, micro_task):
        trace = run(cls, micro_task)
        assert len(trace) >= 2
        times = [p.time_s for p in trace.points]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_learns(self, cls, micro_task):
        trace = run(cls, micro_task, budget=0.06)
        assert trace.best_accuracy > trace.points[0].accuracy + 0.1

    def test_deterministic(self, cls, micro_task):
        a = run(cls, micro_task, budget=0.02)
        b = run(cls, micro_task, budget=0.02)
        assert [p.accuracy for p in a.points] == [p.accuracy for p in b.points]
        assert [p.time_s for p in a.points] == [p.time_s for p in b.points]

    def test_epochs_progress(self, cls, micro_task):
        trace = run(cls, micro_task)
        assert trace.total_epochs > 0


class TestElastic:
    def test_label(self, micro_task):
        assert run(ElasticSGDTrainer, micro_task, budget=0.01).algorithm == "Elastic SGD"

    def test_static_batch_sizes(self, micro_task):
        trace = run(ElasticSGDTrainer, micro_task)
        for sizes in trace.batch_size_history:
            assert sizes == tuple([64] * 4)

    def test_never_perturbs(self, micro_task):
        trace = run(ElasticSGDTrainer, micro_task)
        assert not any(trace.perturbation_history)

    def test_straggler_barrier_slows_megabatches(self, micro_task):
        """On a heterogeneous server Elastic completes fewer epochs than on
        a uniform one in the same budget — the straggler cost."""
        het = ElasticSGDTrainer(
            micro_task, fresh_server(), cfg(), hidden=(32,), init_seed=7,
            data_seed=3, eval_samples=128,
        ).run(time_budget_s=0.04)
        uni_server = make_server(
            4, heterogeneity="uniform", seed=5,
            cost_params=GpuCostParams.tiny_model_profile(),
        )
        uni = ElasticSGDTrainer(
            micro_task, uni_server, cfg(), hidden=(32,), init_seed=7,
            data_seed=3, eval_samples=128,
        ).run(time_budget_s=0.04)
        assert uni.total_epochs > het.total_epochs


class TestSyncSGD:
    def test_label_is_tensorflow(self, micro_task):
        assert run(SyncSGDTrainer, micro_task, budget=0.01).algorithm == "TensorFlow"

    def test_updates_every_batch(self, micro_task):
        trace = run(SyncSGDTrainer, micro_task)
        last = trace.points[-1]
        # One global update per global batch of b_max samples.
        assert last.updates == pytest.approx(last.samples / 64, abs=1)

    def test_framework_overhead_slows_it(self, micro_task, monkeypatch):
        slow = run(SyncSGDTrainer, micro_task)
        assert slow.metadata["framework_overhead"] == FRAMEWORK_OVERHEAD > 1
        monkeypatch.setattr(sync_sgd, "FRAMEWORK_OVERHEAD", 1.0)
        fast = run(SyncSGDTrainer, micro_task)
        assert fast.total_epochs > slow.total_epochs

    def test_fewest_epochs_of_gpu_methods(self, micro_task):
        """The paper's trend: per-batch synchronization starves throughput."""
        tf = run(SyncSGDTrainer, micro_task)
        elastic = run(ElasticSGDTrainer, micro_task)
        assert tf.total_epochs < elastic.total_epochs


class TestCrossbow:
    def test_label(self, micro_task):
        assert run(CrossbowTrainer, micro_task, budget=0.01).algorithm == "CROSSBOW"

    def test_mu_zero_keeps_learners_apart(self, micro_task, monkeypatch):
        # With no elastic force the central model never moves.
        monkeypatch.setattr(crossbow, "ELASTICITY", 0.0)
        trace = run(CrossbowTrainer, micro_task, budget=0.02)
        assert trace.metadata["mu"] == 0.0
        assert trace.points[-1].accuracy == pytest.approx(
            trace.points[0].accuracy, abs=0.05
        )


class TestAsync:
    def test_label(self, micro_task):
        assert run(AsyncSGDTrainer, micro_task, budget=0.01).algorithm == "Async SGD"

    def test_no_barrier_more_updates_than_sync(self, micro_task):
        a = run(AsyncSGDTrainer, micro_task)
        s = run(SyncSGDTrainer, micro_task)
        assert a.points[-1].updates > s.points[-1].updates


class TestMiniBatch:
    def test_single_device(self, micro_task):
        trace = run(MiniBatchSGDTrainer, micro_task, n=1)
        assert trace.n_devices == 1

    def test_update_count_matches_batches(self, micro_task):
        trace = run(MiniBatchSGDTrainer, micro_task)
        last = trace.points[-1]
        assert last.updates == last.samples // 64


class TestGradientBuffers:
    """A trainer that applies a step's gradient before any other device's
    step computes keeps one gradient state per run; one that reduces the
    devices' gradients keeps one per device."""

    @staticmethod
    def buffers(monkeypatch, train):
        """``(gradient states allocated, distinct ones stepped into)``."""
        allocated, stepped = [], set()
        zeros_state, device_step = SparseMLP.zeros_state, TrainerBase.device_step

        def counting_zeros_state(self):
            allocated.append(zeros_state(self))
            return allocated[-1]

        def spying_device_step(self, run, gpu_id, batch, state, grad_out, **kw):
            stepped.add(id(grad_out))
            return device_step(self, run, gpu_id, batch, state, grad_out, **kw)

        monkeypatch.setattr(SparseMLP, "zeros_state", counting_zeros_state)
        monkeypatch.setattr(TrainerBase, "device_step", spying_device_step)
        train()
        return len(allocated), len(stepped)

    @pytest.mark.parametrize("cls, per_run", [
        (AdaptiveSGDTrainer, 1), (ElasticSGDTrainer, 1), (AsyncSGDTrainer, 1),
        (SyncSGDTrainer, 4), (CrossbowTrainer, 4),
    ])
    def test_gradient_states_per_run(self, cls, per_run, micro_task,
                                     monkeypatch):
        assert self.buffers(
            monkeypatch, lambda: run(cls, micro_task, budget=0.02)
        ) == (per_run, per_run)

    def test_adaptive_keeps_one_through_spot_churn_joins(self, micro_task,
                                                         monkeypatch):
        server = fresh_server()
        membership = ClusterMembership(
            server, "spot-churn", duration_s=0.05, seed=3
        )
        trainer = AdaptiveSGDTrainer(
            micro_task, server, cfg(), hidden=(32,), init_seed=7,
            data_seed=3, eval_samples=128, membership=membership,
        )
        traces = []
        counts = self.buffers(
            monkeypatch,
            lambda: traces.append(trainer.run(time_budget_s=0.05)),
        )
        assert traces[0].metadata["membership"]["by_kind"]["join"] >= 1
        assert server.n_gpus > 4  # a joiner got a replica slot
        assert counts == (1, 1)
