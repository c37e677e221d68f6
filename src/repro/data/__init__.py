"""Data substrate: sparse multi-label datasets, generation, IO, batching.

- :mod:`repro.data.dataset` — :class:`SparseDataset` / :class:`XMLTask` containers.
- :mod:`repro.data.synthetic` — learnable synthetic XML task generator.
- :mod:`repro.data.libsvm` — multi-label libSVM read/write (XMLRepository format).
- :mod:`repro.data.batching` — batches, shuffling cursors, mega-batch accounting.
- :mod:`repro.data.stats` — Table-I rows and batch-nnz variance profiles.
- :mod:`repro.data.registry` — named scaled-down analogues of the paper's datasets.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "batching": "Batch BatchCursor MegaBatchAccountant static_batches",
    "dataset": "SparseDataset XMLTask",
    "libsvm": "read_libsvm write_libsvm",
    "registry": "dataset_names get_config load_task",
    "stats": "BatchNnzProfile batch_nnz_profile table1 table1_row",
    "synthetic": "SyntheticXMLConfig generate_xml_task",
})
