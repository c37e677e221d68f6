"""Tests for repro.data.stats and repro.data.registry."""

import pytest

from repro.data.registry import dataset_names, get_config, load_task
from repro.data.stats import batch_nnz_profile, table1, table1_row
from repro.exceptions import ConfigurationError
from tests.reference import scipy_csr


class TestTable1:
    def test_row_columns(self, micro_task):
        row = table1_row(micro_task)
        assert row["features"] == micro_task.n_features
        assert row["classes"] == micro_task.n_labels
        assert row["training samples"] == micro_task.train.n_samples

    def test_table_order(self, micro_task):
        rows = table1([micro_task, micro_task])
        assert len(rows) == 2 and rows[0] == rows[1]


class TestBatchNnzProfile:
    def test_profile_fields(self, micro_task):
        prof = batch_nnz_profile(micro_task.train, 64, seed=0)
        assert prof.batch_size == 64
        assert prof.n_batches == micro_task.train.n_samples // 64
        assert prof.min_nnz <= prof.mean_nnz <= prof.max_nnz

    def test_nnz_spread_is_nonzero(self, micro_task):
        # The heterogeneity premise: equal-size batches differ in nnz.
        prof = batch_nnz_profile(micro_task.train, 64, seed=0)
        assert prof.relative_spread > 0.0
        assert prof.std_nnz > 0.0

    def test_batch_too_large_rejected(self, micro_task):
        with pytest.raises(ValueError):
            batch_nnz_profile(micro_task.train, micro_task.train.n_samples + 1)


class TestRegistry:
    def test_names_listed(self):
        names = dataset_names()
        assert "micro" in names
        assert "amazon670k-tiny" in names
        assert "delicious200k-bench" in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            get_config("nope")

    def test_load_task_deterministic(self):
        a = load_task("micro", seed=7)
        b = load_task("micro", seed=7)
        assert (scipy_csr(a.train.X) != scipy_csr(b.train.X)).nnz == 0

    def test_amazon_shape_signature(self):
        # Amazon-670k's defining ratio: more labels than features,
        # very sparse label sets.
        cfg = get_config("amazon670k-bench")
        assert cfg.n_labels > cfg.n_features
        assert cfg.avg_labels_per_sample <= 6

    def test_delicious_shape_signature(self):
        # Delicious-200k: more features than labels, dense label sets.
        cfg = get_config("delicious200k-bench")
        assert cfg.n_features > cfg.n_labels
        assert cfg.avg_labels_per_sample >= 6

    def test_config_names_match_registry_keys(self):
        for name in dataset_names():
            assert get_config(name).name == name
