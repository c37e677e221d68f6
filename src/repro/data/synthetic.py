"""Synthetic XML dataset generator.

The paper evaluates on Amazon-670k and Delicious-200k from the Extreme
Classification Repository — gigabyte-scale proprietary-download datasets we
do not have here. This module generates scaled-down synthetic analogues that
preserve the properties the paper's mechanisms actually react to:

1. **Sparse, power-law features.** Per-sample non-zero counts follow a
   clipped lognormal around the target mean, and feature ids follow a Zipf
   popularity law — so the *number of non-zeros varies significantly across
   batches*, which is the second heterogeneity source in §I.
2. **Sparse, skewed multi-labels** with Zipf popularity and a configurable
   mean count per sample (5 for Amazon-670k, 75 for Delicious-200k).
3. **Learnable structure.** Each label owns a small set of *prototype*
   features; a sample's features are a mixture of its labels' prototypes and
   background noise. A linear/MLP model can therefore actually learn the
   task, so accuracy-vs-time curves rise the way the paper's do.

The generator is fully deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import SparseDataset, XMLTask
from repro.exceptions import ConfigurationError
from repro.perf.gather import csr_from_coo
from repro.utils.rng import RngFactory
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
)

__all__ = ["SyntheticXMLConfig", "generate_xml_task", "zipf_probabilities"]


def zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    """Normalized Zipf(popularity rank) probabilities over ``n`` items."""
    if n < 1:
        raise ConfigurationError(f"need at least one item, got {n}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-float(exponent))
    return weights / weights.sum()


@dataclass
class SyntheticXMLConfig:
    """Parameters of the synthetic XML task generator.

    The defaults produce a small but structured task; the named registry
    configs (:mod:`repro.data.registry`) scale them to mimic Table I.
    """

    n_features: int = 2048
    n_labels: int = 512
    n_train: int = 4096
    n_test: int = 1024
    avg_features_per_sample: float = 32.0
    avg_labels_per_sample: float = 3.0
    #: Zipf exponent for label popularity (1.0 ~ natural tag skew).
    label_zipf: float = 1.05
    #: Zipf exponent for background-feature popularity.
    feature_zipf: float = 1.05
    #: Prototype features owned by each label (the learnable signal).
    prototypes_per_label: int = 12
    #: Fraction of a sample's non-zeros drawn from its labels' prototypes.
    signal_fraction: float = 0.7
    #: Lognormal sigma controlling the spread of per-sample nnz counts.
    nnz_sigma: float = 0.5
    #: Co-occurring labels are drawn from each label's neighborhood of this size.
    label_neighborhood: int = 8
    name: str = "synthetic-xml"
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("n_features", self.n_features)
        check_positive("n_labels", self.n_labels)
        check_positive("n_train", self.n_train)
        check_positive("n_test", self.n_test)
        check_in_range(
            "avg_features_per_sample", self.avg_features_per_sample, 1, self.n_features
        )
        check_in_range(
            "avg_labels_per_sample", self.avg_labels_per_sample, 1, self.n_labels
        )
        check_positive("prototypes_per_label", self.prototypes_per_label)
        check_probability("signal_fraction", self.signal_fraction)
        check_positive("nnz_sigma", self.nnz_sigma)
        check_positive("label_neighborhood", self.label_neighborhood)


def _sample_counts(
    rng: np.random.Generator, n: int, mean: float, sigma: float, upper: int
) -> np.ndarray:
    """Clipped lognormal counts with the requested mean (>=1)."""
    # For lognormal, E[X] = exp(mu + sigma^2/2); solve mu for the target mean.
    mu = np.log(mean) - 0.5 * sigma * sigma
    counts = rng.lognormal(mean=mu, sigma=sigma, size=n)
    return np.clip(np.rint(counts), 1, upper).astype(np.int64)


def _build_prototypes(
    rng: np.random.Generator, cfg: SyntheticXMLConfig
) -> np.ndarray:
    """(n_labels, prototypes_per_label) feature ids, Zipf-weighted draws."""
    probs = zipf_probabilities(cfg.n_features, cfg.feature_zipf)
    # A random rank->feature permutation decouples popularity from id order.
    perm = rng.permutation(cfg.n_features)
    draws = rng.choice(
        cfg.n_features,
        size=(cfg.n_labels, cfg.prototypes_per_label),
        p=probs,
    )
    return perm[draws]


def _generate_split(
    rng: np.random.Generator,
    cfg: SyntheticXMLConfig,
    n_samples: int,
    prototypes: np.ndarray,
    label_probs: np.ndarray,
    label_perm: np.ndarray,
    split_name: str,
) -> SparseDataset:
    n_labels, n_features = cfg.n_labels, cfg.n_features
    feat_probs = zipf_probabilities(n_features, cfg.feature_zipf)
    feat_perm = rng.permutation(n_features)

    label_counts = _sample_counts(
        rng, n_samples, cfg.avg_labels_per_sample, cfg.nnz_sigma,
        upper=min(n_labels, max(1, int(cfg.avg_labels_per_sample * 8))),
    )
    feature_counts = _sample_counts(
        rng, n_samples, cfg.avg_features_per_sample, cfg.nnz_sigma,
        upper=min(n_features, max(1, int(cfg.avg_features_per_sample * 8))),
    )

    # --- labels: a Zipf-drawn primary plus neighbors of the primary -------
    primaries = label_perm[rng.choice(n_labels, size=n_samples, p=label_probs)]
    extra_total = int(label_counts.sum() - n_samples)
    # Neighbor offsets in [1, label_neighborhood]; wrap around the id space.
    offsets = rng.integers(1, cfg.label_neighborhood + 1, size=max(extra_total, 1))

    # Row i holds its primary, then label_counts[i] - 1 neighbors taking the
    # next offsets in draw order.
    y_rows = np.repeat(np.arange(n_samples), label_counts)
    y_cols = np.repeat(primaries, label_counts)
    is_neighbor = np.ones(len(y_rows), dtype=bool)
    is_neighbor[np.cumsum(label_counts) - label_counts] = False
    y_cols[is_neighbor] = (y_cols[is_neighbor] + offsets[:extra_total]) % n_labels
    Y = csr_from_coo(
        np.ones(len(y_rows), dtype=np.float32), y_rows, y_cols,
        (n_samples, n_labels),
    )
    Y.data[:] = 1.0  # duplicates collapse back to an indicator

    # --- features: prototype signal + Zipf background ---------------------
    signal_counts = np.minimum(
        np.rint(feature_counts * cfg.signal_fraction).astype(np.int64),
        feature_counts,
    )
    noise_counts = feature_counts - signal_counts

    proto_k = prototypes.shape[1]
    total_signal = int(signal_counts.sum())
    total_noise = int(noise_counts.sum())

    proto_slot = rng.integers(0, proto_k, size=max(total_signal, 1))
    noise_draw = feat_perm[
        rng.choice(n_features, size=max(total_noise, 1), p=feat_probs)
    ]

    # Row i holds its signal_counts[i] prototype draws, then its
    # noise_counts[i] background draws, each taken in draw order.
    x_rows = np.repeat(np.arange(n_samples), feature_counts)
    is_signal = np.repeat(
        np.tile([True, False], n_samples),
        np.stack([signal_counts, noise_counts], axis=1).ravel(),
    )
    x_cols = np.empty(len(x_rows), dtype=np.int64)
    x_cols[is_signal] = prototypes[
        np.repeat(primaries, signal_counts), proto_slot[:total_signal]
    ]
    x_cols[~is_signal] = noise_draw[:total_noise]

    # TF-IDF-like positive magnitudes.
    values = rng.lognormal(mean=0.0, sigma=0.4, size=len(x_rows)).astype(np.float32)
    X = csr_from_coo(values, x_rows, x_cols, (n_samples, n_features))
    # L2-normalize rows (standard XML preprocessing) — keeps logits bounded.
    # These float32 ops, in this order, made the pinned dataset digests.
    lens = np.diff(X.indptr)
    filled = np.flatnonzero(lens)
    sq_norms = np.zeros(n_samples, dtype=np.float32)
    sq_norms[filled] = np.add.reduceat(X.data * X.data, X.indptr[filled])
    row_norms = np.sqrt(sq_norms)
    row_norms[row_norms == 0.0] = 1.0
    X.data *= np.repeat(1.0 / row_norms, lens)

    return SparseDataset(X=X, Y=Y, name=split_name)


def generate_xml_task(cfg: SyntheticXMLConfig) -> XMLTask:
    """Generate a full train/test XML task from ``cfg`` (deterministic)."""
    factory = RngFactory(cfg.seed).child("synthetic", cfg.name)
    structure_rng = factory.get("structure")

    prototypes = _build_prototypes(structure_rng, cfg)
    label_probs = zipf_probabilities(cfg.n_labels, cfg.label_zipf)
    label_perm = structure_rng.permutation(cfg.n_labels)

    train = _generate_split(
        factory.get("train"), cfg, cfg.n_train, prototypes, label_probs,
        label_perm, f"{cfg.name}/train",
    )
    test = _generate_split(
        factory.get("test"), cfg, cfg.n_test, prototypes, label_probs,
        label_perm, f"{cfg.name}/test",
    )
    return XMLTask(
        train=train,
        test=test,
        name=cfg.name,
        metadata={"config": cfg, "seed": cfg.seed},
    )
