"""Named dataset configurations.

Two families exist:

- ``*-tiny`` — scaled-down synthetic analogues of the paper's datasets,
  sized so the full experiment suite runs on a laptop in minutes. The
  *ratios* that matter to the algorithms are preserved: Amazon-670k's label
  space is larger than its feature space with very few labels per sample;
  Delicious-200k is the opposite (features >> labels, dense label sets).
- ``*-small`` — larger versions for longer, higher-fidelity runs.

Absolute dimensionalities are reduced (documented per-config); per-sample
nnz means are reduced proportionally less so the tasks stay learnable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.data.dataset import XMLTask
    from repro.data.synthetic import SyntheticXMLConfig

__all__ = ["DATASET_CONFIGS", "dataset_names", "get_config", "load_task"]

# Amazon-670k: 135,909 features / 670,091 labels (labels ~4.9x features),
# 490,449 train, avg 76 feat + 5 labels per sample. Scaled ~1/100 on
# dims, labels kept > features; avg labels kept at 5.
_AMAZON670K_TINY = dict(
    n_features=1536,
    n_labels=6144,
    n_train=6144,
    n_test=1536,
    avg_features_per_sample=24.0,
    avg_labels_per_sample=5.0,
    label_zipf=1.1,
    feature_zipf=1.05,
    prototypes_per_label=10,
    signal_fraction=0.7,
    nnz_sigma=0.55,
)

# Delicious-200k: 782,585 features / 205,443 labels (features ~3.8x
# labels), 196,606 train, avg 302 feat + 75 labels per sample. Scaled
# with features > labels and much denser label sets (avg 12).
_DELICIOUS200K_TINY = dict(
    n_features=4096,
    n_labels=1024,
    n_train=6144,
    n_test=1536,
    avg_features_per_sample=64.0,
    avg_labels_per_sample=12.0,
    label_zipf=0.9,
    feature_zipf=1.1,
    prototypes_per_label=14,
    signal_fraction=0.65,
    nnz_sigma=0.5,
)

#: Dataset name -> :class:`~repro.data.synthetic.SyntheticXMLConfig` fields
#: (all but ``name`` and ``seed``). Plain data: listing the names for a
#: ``--dataset`` flag imports no generator.
DATASET_CONFIGS: Dict[str, dict] = {
    # Minimal task for unit/integration tests: runs in well under a second.
    "micro": dict(
        n_features=256,
        n_labels=64,
        n_train=512,
        n_test=128,
        avg_features_per_sample=12.0,
        avg_labels_per_sample=2.0,
        prototypes_per_label=6,
    ),
    # Benchmark-sized Amazon analogue: keeps labels > features and sparse
    # label sets (avg ~4) while staying small enough that the full Figure-4
    # grid (4 methods x 3 GPU counts x 2 datasets) runs in minutes on a CPU.
    "amazon670k-bench": dict(
        n_features=768,
        n_labels=1536,
        n_train=8192,
        n_test=2048,
        avg_features_per_sample=20.0,
        avg_labels_per_sample=4.0,
        label_zipf=1.1,
        feature_zipf=1.05,
        prototypes_per_label=8,
        signal_fraction=0.7,
        nnz_sigma=0.55,
    ),
    # Benchmark-sized Delicious analogue: features > labels, dense label
    # sets (avg ~8).
    "delicious200k-bench": dict(
        n_features=1536,
        n_labels=512,
        n_train=8192,
        n_test=2048,
        avg_features_per_sample=48.0,
        avg_labels_per_sample=8.0,
        label_zipf=0.9,
        feature_zipf=1.1,
        prototypes_per_label=12,
        signal_fraction=0.65,
        nnz_sigma=0.5,
    ),
    "amazon670k-tiny": _AMAZON670K_TINY,
    "delicious200k-tiny": _DELICIOUS200K_TINY,
    "amazon670k-small": dict(
        _AMAZON670K_TINY,
        n_features=4096,
        n_labels=16384,
        n_train=24576,
        n_test=6144,
        avg_features_per_sample=48.0,
    ),
    "delicious200k-small": dict(
        _DELICIOUS200K_TINY,
        n_features=16384,
        n_labels=4096,
        n_train=24576,
        n_test=6144,
        avg_features_per_sample=128.0,
    ),
}


def dataset_names() -> List[str]:
    """All registered dataset names."""
    return list(DATASET_CONFIGS)


def get_config(name: str, seed: int = 0) -> SyntheticXMLConfig:
    """The generator config for dataset ``name`` at ``seed``."""
    from repro.data.synthetic import SyntheticXMLConfig

    try:
        fields = DATASET_CONFIGS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dataset {name!r}; available: {dataset_names()}"
        ) from None
    return SyntheticXMLConfig(name=name, seed=seed, **fields)


def load_task(name: str, seed: int = 0) -> XMLTask:
    """Generate the named synthetic XML task (deterministic in ``seed``)."""
    from repro.data.synthetic import generate_xml_task

    return generate_xml_task(get_config(name, seed))
