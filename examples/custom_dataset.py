#!/usr/bin/env python
"""Bring your own data: custom synthetic tasks and libSVM files.

Shows the data pipeline end to end:

1. design a custom synthetic XML task (your own dimensionalities, sparsity,
   and label skew) with :class:`SyntheticXMLConfig`;
2. write it to the multi-label libSVM format the Extreme Classification
   Repository uses (and the paper stores its training data in), read it
   back, and verify the round trip;
3. inspect Table-I-style statistics and the batch-nnz variance that drives
   the paper's second heterogeneity source;
4. train a quick model on it.

A real XMLRepository file (e.g. the actual Amazon-670k ``train.txt``) can be
loaded with the same ``read_libsvm`` call — header and all.

Run:  python examples/custom_dataset.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.config import AdaptiveSGDConfig
from repro.baselines.minibatch import MiniBatchSGDTrainer
from repro.data.libsvm import read_libsvm, write_libsvm
from repro.data.stats import batch_nnz_profile, table1_row
from repro.data.synthetic import SyntheticXMLConfig, generate_xml_task
from repro.data.dataset import XMLTask
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from repro.utils.tables import format_kv


def main() -> None:
    # ---- 1. a custom task ---------------------------------------------------
    config = SyntheticXMLConfig(
        name="my-xml-task",
        n_features=2000,
        n_labels=800,
        n_train=4000,
        n_test=1000,
        avg_features_per_sample=40.0,
        avg_labels_per_sample=6.0,
        label_zipf=1.0,
        seed=42,
    )
    task = generate_xml_task(config)
    print(format_kv(table1_row(task)))

    # ---- 2. libSVM round trip ------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        train_path = Path(tmp) / "train.txt"
        write_libsvm(task.train, train_path)
        size_kb = train_path.stat().st_size / 1024
        print(f"\nwrote {train_path.name}: {size_kb:.0f} KiB "
              f"(multi-label libSVM, XMLRepository header)")
        reloaded = read_libsvm(train_path)
        assert reloaded.n_samples == task.train.n_samples
        assert all(np.array_equal(getattr(reloaded.Y, a), getattr(task.train.Y, a))
                   for a in ("indptr", "indices", "data"))
        print("read back: labels identical, values within float precision")
        task = XMLTask(train=reloaded, test=task.test, name=task.name)

    # ---- 3. sparsity diagnostics ---------------------------------------------
    profile = batch_nnz_profile(task.train, batch_size=128, seed=0)
    print("\nbatch-nnz variance at fixed batch size "
          "(the paper's second heterogeneity source):")
    print(format_kv({
        "batches": profile.n_batches,
        "mean nnz": profile.mean_nnz,
        "min nnz": profile.min_nnz,
        "max nnz": profile.max_nnz,
        "relative spread": f"{profile.relative_spread:.1%}",
    }))

    # ---- 4. quick training ---------------------------------------------------
    server = make_server(
        1, seed=0, cost_params=GpuCostParams.tiny_model_profile()
    )
    trainer = MiniBatchSGDTrainer(
        task, server,
        AdaptiveSGDConfig(b_max=128, base_lr=0.4, mega_batch_batches=10),
        hidden=(64,), init_seed=0, data_seed=0, eval_samples=500,
    )
    trace = trainer.run(time_budget_s=0.1)
    print(f"\nmini-batch SGD on 1 virtual GPU: "
          f"accuracy {trace.points[0].accuracy:.3f} -> "
          f"{trace.best_accuracy:.3f} in {trace.total_epochs:.1f} epochs")


if __name__ == "__main__":
    main()
