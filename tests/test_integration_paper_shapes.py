"""Integration tests: the paper's qualitative findings at test scale.

These are scaled-down versions of the benchmark assertions — small enough
for the unit-test suite, but exercising the full pipeline (data generation →
virtual cluster → trainers → traces → analysis) across module boundaries.
"""

import pytest

from repro.core.config import AdaptiveSGDConfig
from repro.data.registry import load_task
from repro.data.synthetic import SyntheticXMLConfig, generate_xml_task
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.tta import default_targets


@pytest.fixture(scope="module")
def shape_task():
    """A task big enough that compute (not launch overhead) dominates a
    step, so the heterogeneity effects under test are actually visible."""
    return generate_xml_task(SyntheticXMLConfig(
        name="shape", n_features=512, n_labels=512, n_train=2048,
        n_test=512, avg_features_per_sample=24.0, avg_labels_per_sample=3.0,
        seed=0,
    ))


def shape_spec(**overrides):
    defaults = dict(
        dataset="micro",  # ignored: run_experiment receives the task directly
        algorithms=("adaptive", "elastic", "tensorflow", "crossbow"),
        gpu_counts=(1, 4),
        time_budget_s=0.08,
        config=AdaptiveSGDConfig(b_max=64, base_lr=0.3, mega_batch_batches=32),
        eval_samples=128,
        seed=0,
        hidden=(64,),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def fig4_micro_traces(shape_task):
    """One shared 4-method run set (module-scoped)."""
    return run_experiment(shape_spec(), task=shape_task)


class TestFigure4Shapes:
    def test_adaptive_wins_or_ties_best_accuracy(self, fig4_micro_traces):
        adaptive = fig4_micro_traces[("adaptive", 4)]
        best = max(t.best_accuracy for t in fig4_micro_traces.values())
        assert adaptive.best_accuracy >= best - 0.03

    def test_adaptive_outpaces_elastic_in_epochs(self, fig4_micro_traces):
        """No straggler barrier: more data consumed in the same sim time."""
        adaptive = fig4_micro_traces[("adaptive", 4)]
        elastic = fig4_micro_traces[("elastic", 4)]
        assert adaptive.total_epochs >= elastic.total_epochs

    def test_tensorflow_is_slowest_in_throughput(self, fig4_micro_traces):
        tf = fig4_micro_traces[("tensorflow", 4)]
        for key in (("adaptive", 4), ("elastic", 4), ("crossbow", 4)):
            assert tf.total_epochs < fig4_micro_traces[key].total_epochs

    def test_adaptive_leads_at_mid_horizon(self, fig4_micro_traces):
        four_gpu = {
            key[0]: trace
            for key, trace in fig4_micro_traces.items()
            if key[1] == 4
        }
        label = max(
            four_gpu, key=lambda name: four_gpu[name].accuracy_at_time(0.06)
        )
        assert label in ("adaptive", "elastic")

    def test_single_gpu_adaptive_equals_elastic_exactly(self, fig4_micro_traces):
        """§V-B: 'Elastic and Adaptive SGD ... are identical' on one GPU."""
        adaptive = fig4_micro_traces[("adaptive", 1)]
        elastic = fig4_micro_traces[("elastic", 1)]
        accs_a = [p.accuracy for p in adaptive.points]
        accs_e = [p.accuracy for p in elastic.points]
        n = min(len(accs_a), len(accs_e))
        assert n > 3
        assert accs_a[:n] == pytest.approx(accs_e[:n], abs=1e-7)

    def test_all_methods_share_time_zero_accuracy(self, fig4_micro_traces):
        initial = {t.points[0].accuracy for t in fig4_micro_traces.values()}
        assert len(initial) == 1


class TestScalabilityShape:
    def test_more_gpus_not_slower_to_mid_target(self, shape_task):
        spec = shape_spec(algorithms=("adaptive",))
        traces = run_experiment(spec, task=shape_task)
        one, four = traces[("adaptive", 1)], traces[("adaptive", 4)]
        target = 0.5 * max(one.best_accuracy, four.best_accuracy)
        t1 = one.time_to_accuracy(target)
        t4 = four.time_to_accuracy(target)
        assert t4 is not None
        assert t1 is None or t4 <= t1 * 1.1


class TestHeterogeneityAblation:
    def test_adaptive_advantage_comes_from_heterogeneity(self, shape_task):
        """On a *uniform* server Adaptive and Elastic throughput converge;
        on the heterogeneous server Adaptive pulls ahead."""
        from repro.baselines.elastic import ElasticSGDTrainer
        from repro.core.adaptive import AdaptiveSGDTrainer

        cfg = AdaptiveSGDConfig(b_max=64, base_lr=0.3, mega_batch_batches=32)

        def epochs(cls, mode):
            server = make_server(
                4, heterogeneity=mode, seed=5,
                cost_params=GpuCostParams.tiny_model_profile(),
            )
            trainer = cls(
                shape_task, server, cfg, hidden=(64,), init_seed=7,
                data_seed=3, eval_samples=128,
            )
            return trainer.run(time_budget_s=0.05).total_epochs

        het_gain = epochs(AdaptiveSGDTrainer, "het") / epochs(
            ElasticSGDTrainer, "het"
        )
        uni_gain = epochs(AdaptiveSGDTrainer, "uniform") / epochs(
            ElasticSGDTrainer, "uniform"
        )
        assert het_gain > uni_gain - 0.02
        assert het_gain > 1.0

    def test_run_experiment_deterministic_end_to_end(self, shape_task):
        spec = shape_spec(
            algorithms=("adaptive",), gpu_counts=(2,), time_budget_s=0.02,
        )
        a = run_experiment(spec, task=shape_task)[("adaptive", 2)]
        b = run_experiment(spec, task=shape_task)[("adaptive", 2)]
        assert [p.accuracy for p in a.points] == [p.accuracy for p in b.points]
        assert a.batch_size_history == b.batch_size_history
