"""Additional tests for the figure builders and per-dataset defaults."""

import pytest

from repro.core.config import AdaptiveSGDConfig
from repro.harness.experiment import default_config_for
from repro.harness.figures import fig1_heterogeneity


class TestDefaultConfigFor:
    def test_amazon_defaults(self):
        cfg = default_config_for("amazon670k-bench")
        assert cfg.base_lr == pytest.approx(2.0)
        assert cfg.b_max == 128
        assert cfg.mega_batch_batches == 40

    def test_delicious_defaults(self):
        cfg = default_config_for("delicious200k-bench")
        assert cfg.base_lr == pytest.approx(0.8)

    def test_derivation_rules_preserved(self):
        for name in ("amazon670k-bench", "delicious200k-bench", "micro"):
            cfg = default_config_for(name)
            assert cfg.b_min == cfg.b_max // 8
            assert cfg.beta == cfg.b_min / 2
            assert cfg.gamma == 0.9 and cfg.delta == 0.1

    def test_fresh_instance_each_call(self):
        a = default_config_for("micro")
        b = default_config_for("micro")
        assert a is not b  # configs must not be shared across experiments


class TestFig1Knobs:
    def test_more_gpus_more_rows(self):
        rows = fig1_heterogeneity(
            n_gpus=2, dataset="micro", batch_size=32, n_epoch_batches=2
        )
        assert len(rows) == 2

    def test_fastest_has_zero_slowdown(self):
        rows = fig1_heterogeneity(
            dataset="micro", batch_size=32, n_epoch_batches=2
        )
        assert min(r["relative_slowdown"] for r in rows) == 0.0

    def test_seed_changes_assignment(self):
        a = fig1_heterogeneity(
            dataset="micro", batch_size=32, n_epoch_batches=2, seed=0
        )
        b = fig1_heterogeneity(
            dataset="micro", batch_size=32, n_epoch_batches=2, seed=1
        )
        assert [r["epoch_time_s"] for r in a] != [r["epoch_time_s"] for r in b]

    def test_epoch_time_grows_with_batches(self):
        short = fig1_heterogeneity(
            dataset="micro", batch_size=32, n_epoch_batches=2
        )
        long = fig1_heterogeneity(
            dataset="micro", batch_size=32, n_epoch_batches=6
        )
        assert long[0]["epoch_time_s"] > short[0]["epoch_time_s"]
