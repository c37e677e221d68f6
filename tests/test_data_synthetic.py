"""Tests for repro.data.synthetic — generator statistics and learnability."""

import hashlib

import numpy as np
import pytest

from repro.data.registry import load_task
from repro.data.synthetic import (
    SyntheticXMLConfig,
    generate_xml_task,
    zipf_probabilities,
)
from repro.exceptions import ConfigurationError
from tests.reference import scipy_csr


class TestZipf:
    def test_normalized(self):
        p = zipf_probabilities(100, 1.1)
        assert p.sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        p = zipf_probabilities(50, 1.0)
        assert np.all(np.diff(p) < 0)

    def test_zero_exponent_uniform(self):
        p = zipf_probabilities(10, 0.0)
        assert np.allclose(p, 0.1)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            zipf_probabilities(0, 1.0)


def small_cfg(**overrides):
    base = dict(
        n_features=512, n_labels=128, n_train=1024, n_test=256,
        avg_features_per_sample=16.0, avg_labels_per_sample=2.5,
        name="t", seed=3,
    )
    base.update(overrides)
    return SyntheticXMLConfig(**base)


class TestGenerateTask:
    def test_shapes_match_config(self):
        task = generate_xml_task(small_cfg())
        assert task.train.n_samples == 1024
        assert task.test.n_samples == 256
        assert task.n_features == 512
        assert task.n_labels == 128

    def test_deterministic(self):
        a = generate_xml_task(small_cfg())
        b = generate_xml_task(small_cfg())
        assert (scipy_csr(a.train.X) != scipy_csr(b.train.X)).nnz == 0
        assert (scipy_csr(a.train.Y) != scipy_csr(b.train.Y)).nnz == 0

    def test_seed_changes_data(self):
        a = generate_xml_task(small_cfg(seed=1))
        b = generate_xml_task(small_cfg(seed=2))
        assert (scipy_csr(a.train.X) != scipy_csr(b.train.X)).nnz > 0

    def test_mean_feature_count_near_target(self):
        # Duplicate draws collapse, so the realized mean can sit below the
        # target; it must stay within a factor-2 band and above 1.
        task = generate_xml_task(small_cfg())
        avg = task.train.avg_features_per_sample
        assert 16.0 / 2 <= avg <= 16.0 * 1.3

    def test_mean_label_count_near_target(self):
        task = generate_xml_task(small_cfg())
        avg = task.train.avg_labels_per_sample
        assert 2.5 / 2 <= avg <= 2.5 * 1.3

    def test_rows_l2_normalized(self):
        task = generate_xml_task(small_cfg())
        X = scipy_csr(task.train.X)
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1))).ravel()
        assert np.allclose(norms[norms > 0], 1.0, atol=1e-5)

    def test_nnz_varies_across_samples(self):
        # The second heterogeneity source: per-sample nnz must spread.
        task = generate_xml_task(small_cfg())
        counts = np.diff(task.train.X.indptr)
        assert counts.std() > 0.15 * counts.mean()

    def test_label_popularity_skewed(self):
        task = generate_xml_task(small_cfg(n_train=4096))
        freq = np.asarray(scipy_csr(task.train.Y).sum(axis=0)).ravel()
        freq.sort()
        top = freq[-len(freq) // 10:].sum()
        assert top > 0.2 * freq.sum()  # top-10% labels dominate

    def test_values_positive(self):
        task = generate_xml_task(small_cfg())
        assert (task.train.X.data > 0).all()

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            small_cfg(avg_features_per_sample=0)
        with pytest.raises(ConfigurationError):
            small_cfg(signal_fraction=1.5)
        with pytest.raises(ConfigurationError):
            small_cfg(n_labels=0)

    def test_learnable_structure(self):
        """A one-step class-prototype classifier must beat random guessing.

        Signal features are drawn from label prototypes, so averaging the
        feature vectors of each label's samples and scoring by dot product
        should retrieve the right label far above the 1/128 random rate.
        """
        task = generate_xml_task(small_cfg())
        Xtr, Ytr = scipy_csr(task.train.X), scipy_csr(task.train.Y)
        centroids = (Ytr.T @ Xtr).toarray()  # (L, D)
        scores = scipy_csr(task.test.X) @ centroids.T  # (n_test, L)
        pred = np.asarray(scores.argmax(axis=1)).ravel()
        hit = np.asarray(
            scipy_csr(task.test.Y)[np.arange(task.test.n_samples), pred]
        ).ravel()
        assert hit.mean() > 10.0 / 128


def task_digest(task) -> str:
    """sha256 over both splits' raw CSR arrays (values, ids, row pointers)."""
    h = hashlib.sha256()
    for split in (task.train, task.test):
        for a in (split.X.data, split.X.indices, split.X.indptr,
                  split.Y.indices, split.Y.indptr):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestPinnedBytes:
    """Digests taken from the per-sample scatter loops the vectorised
    generator replaced: it must keep producing the same bytes."""

    @pytest.mark.parametrize("name, seed, digest", [
        ("micro", 1,
         "54813e2fb484368aea42afdf420b667494faf1503847f59884c844db65c50bcd"),
        ("amazon670k-bench", 0,
         "557124059ee87542d2296c4d012aff4b224626f1ac489b4f47d2922c8f484d3d"),
    ])
    def test_registry_datasets(self, name, seed, digest):
        assert task_digest(load_task(name, seed=seed)) == digest

    @pytest.mark.parametrize("overrides, digest", [
        (dict(n_features=300, n_labels=40, n_train=257, n_test=31,
              avg_features_per_sample=9.0, avg_labels_per_sample=1.6,
              prototypes_per_label=5, signal_fraction=0.55, nnz_sigma=0.8,
              label_neighborhood=3, name="pinned", seed=11),
         "757227b1a42b91e85f948f721152e38fab338ddde67bf0f5a4ceb3557a20af00"),
        # One label per sample (no neighbor draws) and all-signal features.
        (dict(n_features=64, n_labels=8, n_train=50, n_test=10,
              avg_features_per_sample=4.0, avg_labels_per_sample=1.0,
              signal_fraction=1.0, name="edge", seed=2),
         "48e0ddf3db5e8071961815a675471aaf83c13bb2291817cdad7ba8f294a5f69a"),
        # No signal at all: every feature is a background draw.
        (dict(n_features=64, n_labels=8, n_train=50, n_test=10,
              avg_features_per_sample=4.0, avg_labels_per_sample=1.0,
              signal_fraction=0.0, name="edge0", seed=2),
         "25eee912be75d2ea554b2eea546e02f9ec2d8c2bd5cd63b711788d0adb0c07b4"),
    ])
    def test_hand_written_configs(self, overrides, digest):
        assert task_digest(generate_xml_task(SyntheticXMLConfig(**overrides))) == digest
