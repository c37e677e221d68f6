"""Tests for repro.harness.figures and repro.harness.report."""

import pytest

from repro.core.config import AdaptiveSGDConfig
from repro.harness.figures import (
    PAPER_TABLE1,
    allreduce_comparison,
    fig1_heterogeneity,
    fig6_adaptivity,
    table1_rows,
)
from repro.harness.report import (
    render_allreduce,
    render_fig1,
    render_fig6,
    render_table1,
    render_tta_curves,
    render_tta_summary,
)
from repro.harness.traces import Boundary, TrainingTrace

FAST_CFG = AdaptiveSGDConfig(b_max=64, base_lr=0.2, mega_batch_batches=8)


class TestFig1:
    def test_rows_and_gap(self):
        rows = fig1_heterogeneity(
            dataset="micro", batch_size=64, n_epoch_batches=4, seed=0
        )
        assert len(rows) == 4
        slowdowns = [r["relative_slowdown"] for r in rows]
        assert min(slowdowns) == 0.0
        # The headline observation: a gap comparable to the paper's 32%.
        assert 0.15 < max(slowdowns) < 0.45

    def test_uniform_gap_shrinks(self):
        rows = fig1_heterogeneity(
            dataset="micro", batch_size=64, n_epoch_batches=4, seed=0,
            max_gap=0.0,
        )
        assert max(r["relative_slowdown"] for r in rows) < 0.15

    def test_render(self):
        rows = fig1_heterogeneity(
            dataset="micro", batch_size=64, n_epoch_batches=4
        )
        out = render_fig1(rows)
        assert "Figure 1" in out and "gap" in out


class TestTable1:
    def test_paper_reference_rows(self):
        assert PAPER_TABLE1[0]["dataset"] == "Amazon-670k"
        assert PAPER_TABLE1[1]["classes"] == 205_443

    def test_rows_for_micro(self):
        rows = table1_rows(datasets=("micro",))
        assert rows[0]["dataset"] == "micro"

    def test_render_with_paper_reference(self):
        rows = table1_rows(datasets=("micro",))
        out = render_table1(rows, PAPER_TABLE1)
        assert "this reproduction" in out
        assert "Amazon-670k" in out


class TestFig6:
    def test_adaptivity_result(self, micro_task):
        trace = fig6_adaptivity(
            dataset="micro", n_gpus=2, time_budget_s=0.02,
            config=FAST_CFG, eval_samples=64,
        )
        assert trace.n_devices == 2 and len(trace.boundaries) == len(trace) - 1
        assert {len(b.batch_sizes) for b in trace.boundaries} == {2}
        assert 0.0 <= trace.perturbation_frequency() <= 1.0

    def test_render(self):
        trace = fig6_adaptivity(
            dataset="micro", n_gpus=2, time_budget_s=0.01,
            config=FAST_CFG, eval_samples=64,
        )
        out = render_fig6(trace)
        assert "Figure 6a" in out and "Figure 6b" in out

    def test_6b_line_is_derived_from_the_boundaries(self):
        trace = TrainingTrace("A", "d", 2, boundaries=[
            Boundary((64, 32), True, "updates", 2),
            Boundary((64, 30), False, "batch_size", 0),
            Boundary((60, 30), True, "updates", 1),
        ])
        assert render_fig6(trace).splitlines()[-1] == (
            "Figure 6b — perturbation activation frequency: 66.7% of merges"
            " | merge branches: {'updates': 2, 'batch_size': 1}"
            " | max staleness: 2 updates"
        )


class TestAllreduce:
    def test_rows_cover_grid(self):
        rows = allreduce_comparison(
            model_params=(1_000_000,), gpu_counts=(2, 4)
        )
        assert len(rows) == 2
        assert {r["gpus"] for r in rows} == {2, 4}

    def test_paper_claim_in_rows(self):
        rows = allreduce_comparison(
            model_params=(1_048_576, 8_388_608), gpu_counts=(4,)
        )
        for row in rows:
            assert row["ring_multi_vs_tree"] >= 2.0

    def test_render(self):
        out = render_allreduce(
            allreduce_comparison(model_params=(1_000_000,), gpu_counts=(4,))
        )
        assert "all-reduce" in out and "ring" in out


class TestCurveRendering:
    def test_tta_outputs(self, micro_task):
        from repro.harness.experiment import run_experiment, ExperimentSpec

        spec = ExperimentSpec(
            dataset="micro", algorithms=("adaptive",), gpu_counts=(2,),
            time_budget_s=0.01, config=FAST_CFG, eval_samples=64,
        )
        traces = run_experiment(spec, task=micro_task)
        curves = render_tta_curves(traces, title="t")
        assert "Adaptive SGD (2 GPUs)" in curves
        summary = render_tta_summary(list(traces.values()))
        assert "best acc" in summary
