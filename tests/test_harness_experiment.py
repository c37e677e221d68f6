"""Tests for repro.harness.experiment and repro.harness.sweep."""

import pytest

from repro.core.config import AdaptiveSGDConfig
from repro.exceptions import ConfigurationError
from repro.api import TRAINER_REGISTRY
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.sweep import ablation_grid, sweep


def small_spec(**kwargs):
    defaults = dict(
        dataset="micro",
        algorithms=("adaptive", "elastic"),
        gpu_counts=(2,),
        time_budget_s=0.02,
        config=AdaptiveSGDConfig(b_max=64, base_lr=0.2, mega_batch_batches=8),
        eval_samples=64,
        seed=0,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestExperimentSpec:
    def test_registry_contains_paper_methods(self):
        for name in ("adaptive", "elastic", "tensorflow", "crossbow", "slide"):
            assert name in TRAINER_REGISTRY

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(algorithms=("nope",))

    def test_invalid_gpu_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(gpu_counts=(0,))
        with pytest.raises(ConfigurationError):
            small_spec(gpu_counts=())

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(time_budget_s=0.0)

    def test_build_server_fresh_instances(self):
        spec = small_spec()
        assert spec.build_server(2) is not spec.build_server(2)

    def test_tiny_hardware_flag(self):
        tiny = small_spec(tiny_hardware=True).cost_params()
        full = small_spec(tiny_hardware=False).cost_params()
        assert tiny.dense_flops_per_s < full.dense_flops_per_s


class TestRunExperiment:
    def test_grid_keys(self, micro_task):
        results = run_experiment(small_spec(), task=micro_task)
        assert set(results) == {("adaptive", 2), ("elastic", 2)}

    def test_traces_have_points(self, micro_task):
        results = run_experiment(small_spec(), task=micro_task)
        for trace in results.values():
            assert len(trace) >= 2

    def test_slide_runs_once_regardless_of_gpu_grid(self, micro_task):
        spec = small_spec(
            algorithms=("slide",), gpu_counts=(1, 2), time_budget_s=0.002
        )
        results = run_experiment(spec, task=micro_task)
        assert list(results) == [("slide", 1)]

    def test_same_initialization_across_algorithms(self, micro_task):
        """§V-A: 'All the algorithms are initialized with the same model' —
        the t=0 checkpoint accuracy must agree across methods."""
        results = run_experiment(small_spec(), task=micro_task)
        initial = {
            key: trace.points[0].accuracy for key, trace in results.items()
        }
        assert len(set(initial.values())) == 1

    def test_equal_time_budgets(self, micro_task):
        spec = small_spec()
        results = run_experiment(spec, task=micro_task)
        for trace in results.values():
            assert trace.total_time >= spec.time_budget_s * 0.9


class TestSweep:
    def test_sweep_varies_single_knob(self, micro_task):
        base = AdaptiveSGDConfig(b_max=64, base_lr=0.2, mega_batch_batches=8)
        results = sweep(
            base, "delta", [0.0, 0.2], dataset="micro", n_gpus=2,
            time_budget_s=0.01, eval_samples=64, task=micro_task,
        )
        assert set(results) == {0.0, 0.2}
        for value, trace in results.items():
            assert trace.metadata["sweep_value"] == value
            assert trace.metadata["config"].delta == value

    def test_unknown_knob_rejected(self, micro_task):
        base = AdaptiveSGDConfig()
        with pytest.raises(ConfigurationError):
            sweep(base, "not_a_field", [1], task=micro_task)

    def test_ablation_grid_variants(self):
        base = AdaptiveSGDConfig(b_max=64, base_lr=0.2, mega_batch_batches=8)
        results = ablation_grid(
            base, dataset="micro", n_gpus=2, time_budget_s=0.01,
            eval_samples=64,
        )
        assert set(results) == {
            "full", "no-perturbation", "paper-denormalized",
            "no-batch-scaling", "uniform-merge", "no-momentum",
            "updates-times-batch",
        }
        assert not results[
            "no-perturbation"
        ].metadata["config"].enable_perturbation
        assert results["no-momentum"].metadata["config"].gamma == 0.0
