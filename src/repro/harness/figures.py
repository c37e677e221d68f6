"""Per-figure experiment builders: one function per paper artifact.

Each builder assembles the workload, runs it, and returns plain data
structures (rows / trace dicts) that the benches print and EXPERIMENTS.md
summarizes. Scale parameters default to fast settings; the benchmark suite
passes larger values.

Paper artifacts covered: Figure 1 (GPU heterogeneity), Table I (datasets),
Figure 4 (time-to-accuracy grid), Figure 5a/5b (scalability vs SLIDE),
Figure 6a/6b (batch scaling + perturbation), and the §IV all-reduce claim.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.comm.ring import RingAllReduce
from repro.comm.tree import TreeAllReduce
from repro.core.config import AdaptiveSGDConfig
from repro.data.batching import static_batches
from repro.data.registry import load_task
from repro.data.stats import table1_row
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams, StepWorkload
from repro.harness.experiment import RunKey, grid_spec, run_experiment
from repro.harness.traces import TrainingTrace

__all__ = [
    "PAPER_TABLE1",
    "fig1_heterogeneity",
    "table1_rows",
    "fig4_time_to_accuracy",
    "fig5_scalability",
    "fig6_adaptivity",
    "allreduce_comparison",
]

#: Table I as printed in the paper (reference values for EXPERIMENTS.md).
PAPER_TABLE1 = [
    {
        "dataset": "Amazon-670k",
        "features": 135_909,
        "classes": 670_091,
        "training samples": 490_449,
        "testing samples": 153_025,
        "avg features per sample": 76,
        "avg classes per sample": 5,
    },
    {
        "dataset": "Delicious-200k",
        "features": 782_585,
        "classes": 205_443,
        "training samples": 196_606,
        "testing samples": 100_095,
        "avg features per sample": 302,
        "avg classes per sample": 75,
    },
]


# --------------------------------------------------------------------------
# Figure 1 — multi-GPU heterogeneity on an identical batch
# --------------------------------------------------------------------------

def fig1_heterogeneity(
    *,
    n_gpus: int = 4,
    dataset: str = "amazon670k-bench",
    batch_size: int = 256,
    n_epoch_batches: int = 16,
    seed: int = 0,
    max_gap: float = 0.32,
) -> List[Dict[str, float]]:
    """Per-GPU time for one *identical* training epoch (Figure 1).

    Every GPU is timed on the exact same batch sequence; differences come
    solely from the device speed profiles. Returns one row per GPU with its
    epoch time and slowdown relative to the fastest device.
    """
    task = load_task(dataset, seed=seed)
    server = make_server(
        n_gpus, max_gap=max_gap, seed=seed,
        cost_params=GpuCostParams.tiny_model_profile(),
    )
    hidden = 64
    layer_dims = (task.n_features, hidden, task.n_labels)
    batches = []
    for batch in static_batches(task.train, batch_size, seed=seed):
        batches.append(batch)
        if len(batches) >= n_epoch_batches:
            break
    epoch_times = []
    for gpu in server.gpus:
        t = 0.0
        for batch in batches:
            work = StepWorkload(batch.size, batch.nnz, layer_dims)
            t += gpu.step_time(work, t, n_active_gpus=n_gpus)
        epoch_times.append(t)
    fastest = min(epoch_times)
    return [
        {
            "gpu": gpu.device_id,
            "epoch_time_s": epoch_times[i],
            "relative_slowdown": epoch_times[i] / fastest - 1.0,
        }
        for i, gpu in enumerate(server.gpus)
    ]


# --------------------------------------------------------------------------
# Table I — dataset characteristics
# --------------------------------------------------------------------------

def table1_rows(
    datasets: Sequence[str] = ("amazon670k-bench", "delicious200k-bench"),
    *,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Table-I rows for the synthetic analogue datasets."""
    return [table1_row(load_task(name, seed=seed)) for name in datasets]


# --------------------------------------------------------------------------
# Figure 4 — time-to-accuracy for every method × GPU count
# --------------------------------------------------------------------------

def fig4_time_to_accuracy(
    dataset: str = "amazon670k-bench",
    *,
    gpu_counts: Sequence[int] = (1, 2, 4),
    time_budget_s: float = 0.35,
    config: Optional[AdaptiveSGDConfig] = None,
    seed: int = 0,
    eval_samples: int = 512,
) -> Dict[RunKey, TrainingTrace]:
    """The full Figure-4 grid on one dataset."""
    return run_experiment(grid_spec(
        dataset, ("adaptive", "elastic", "tensorflow", "crossbow"),
        gpu_counts, time_budget_s,
        config=config, seed=seed, eval_samples=eval_samples,
    ))


# --------------------------------------------------------------------------
# Figure 5 — scalability: Adaptive SGD vs SLIDE
# --------------------------------------------------------------------------

def fig5_scalability(
    dataset: str = "amazon670k-bench",
    *,
    gpu_counts: Sequence[int] = (1, 2, 4),
    time_budget_s: float = 0.35,
    config: Optional[AdaptiveSGDConfig] = None,
    seed: int = 0,
    eval_samples: int = 512,
) -> Dict[RunKey, TrainingTrace]:
    """Adaptive SGD at each GPU count plus the SLIDE CPU baseline."""
    return run_experiment(grid_spec(
        dataset, ("adaptive", "slide"), gpu_counts, time_budget_s,
        config=config, seed=seed, eval_samples=eval_samples,
    ))


# --------------------------------------------------------------------------
# Figure 6 — do batch size scaling and perturbation activate?
# --------------------------------------------------------------------------

def fig6_adaptivity(
    dataset: str = "amazon670k-bench",
    *,
    n_gpus: int = 4,
    time_budget_s: float = 0.35,
    config: Optional[AdaptiveSGDConfig] = None,
    seed: int = 0,
    eval_samples: int = 256,
) -> TrainingTrace:
    """One Adaptive run: its trace's boundaries are Figure 6a/6b."""
    return run_experiment(grid_spec(
        dataset, ("adaptive",), (n_gpus,), time_budget_s,
        config=config, seed=seed, eval_samples=eval_samples,
    ))[("adaptive", n_gpus)]


# --------------------------------------------------------------------------
# §IV — multi-stream ring vs single-stream tree all-reduce
# --------------------------------------------------------------------------

def allreduce_comparison(
    *,
    model_params: Sequence[int] = (262_144, 1_048_576, 8_388_608),
    gpu_counts: Sequence[int] = (2, 4, 8),
) -> List[Dict[str, float]]:
    """Merge-time rows for ring (1 and n streams) vs tree (1 stream)."""
    from repro.comm.topology import InterconnectTopology

    rows: List[Dict[str, float]] = []
    for n in gpu_counts:
        topo = InterconnectTopology.single_server_pcie(n)
        for params in model_params:
            nbytes = 4 * params
            ring_multi = RingAllReduce(n).time_seconds(nbytes, topo)
            ring_single = RingAllReduce(1).time_seconds(nbytes, topo)
            tree_single = TreeAllReduce().time_seconds(nbytes, topo)
            rows.append(
                {
                    "gpus": n,
                    "model_params": params,
                    "ring_multi_ms": ring_multi.total_s * 1e3,
                    "ring_single_ms": ring_single.total_s * 1e3,
                    "tree_single_ms": tree_single.total_s * 1e3,
                    "ring_multi_vs_tree": tree_single.total_s
                    / max(ring_multi.total_s, 1e-12),
                }
            )
    return rows
