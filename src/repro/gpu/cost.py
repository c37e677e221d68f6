"""Analytical execution-cost model for virtual devices.

The paper's scheduling decisions depend only on *when each GPU finishes its
batch*, so the simulator prices one SGD step from first principles:

- **sparse flops** (input-layer kernels) at a sparse-kernel throughput —
  their count is proportional to the batch's non-zero features, reproducing
  the data-dependent variance of §I;
- **dense flops** (hidden/output GEMMs) at a dense throughput;
- **update flops** (parameter traversal) at a memory-bound throughput;
- **kernel-launch overhead** per step: ``n_kernels × launch_us``, inflated
  by the CUDA-environment *interference* factor that grows with the number
  of GPUs launching concurrently (§IV), over HeteroGPU's fused kernel count
  (the unfused stack launches about four times as many kernels);
- **host↔device transfer** of the batch's bytes over PCIe.

Throughputs default to V100-like magnitudes. Absolute values only set the
time unit; the *ratios* (dense vs sparse vs launch overhead) are what shape
the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.exceptions import ConfigurationError
from repro.sparse.ops import estimate_inference_flops, estimate_step_flops
from repro.utils.validation import check_positive

__all__ = ["StepWorkload", "GpuCostParams", "GpuCostModel", "CpuCostParams", "CpuCostModel"]


@dataclass(frozen=True)
class StepWorkload:
    """Size descriptors of one SGD step handed to a cost model."""

    batch_size: int
    batch_nnz: int
    layer_dims: Tuple[int, ...]
    #: For sampled-softmax (SLIDE) steps: labels actually touched, else -1.
    active_labels: int = -1

    @property
    def batch_bytes(self) -> int:
        """Approximate bytes moved to the device for this batch (CSR + labels)."""
        # values (4B) + column indices (4B) per nnz, plus indptr.
        return 8 * self.batch_nnz + 4 * (self.batch_size + 1)


@dataclass(frozen=True)
class GpuCostParams:
    """Tunable constants of the GPU cost model (V100-flavored defaults)."""

    #: Effective dense GEMM throughput (flop/s).
    dense_flops_per_s: float = 6.0e12
    #: Effective sparse (cuSPARSE-like) throughput — well below dense.
    sparse_flops_per_s: float = 4.0e11
    #: Memory-bound parameter-update throughput (flop/s).
    update_flops_per_s: float = 3.0e11
    #: Per-kernel launch latency (seconds).
    kernel_launch_s: float = 8.0e-6
    #: Kernels per SGD step with HeteroGPU's kernel fusion (§IV).
    kernels_per_step_fused: int = 6
    #: Extra launch overhead per additional concurrently-active GPU.
    interference_per_gpu: float = 0.35
    #: Host→device PCIe bandwidth (bytes/s) for batch upload.
    h2d_bytes_per_s: float = 12.0e9
    #: Fixed per-step framework overhead (seconds).
    step_overhead_s: float = 3.0e-5

    def __post_init__(self) -> None:
        for name in (
            "dense_flops_per_s", "sparse_flops_per_s", "update_flops_per_s",
            "kernel_launch_s", "h2d_bytes_per_s",
        ):
            check_positive(name, getattr(self, name))
        if self.interference_per_gpu < 0:
            raise ConfigurationError("interference_per_gpu must be >= 0")

    @classmethod
    def tiny_model_profile(cls) -> "GpuCostParams":
        """Cost constants rescaled for the scaled-down benchmark models.

        The experiment models in this reproduction are orders of magnitude
        smaller than Amazon-670k's ~100M parameters, so at V100 throughputs
        a step would be dominated by the constant launch/step overheads —
        drowning the heterogeneity signal the paper studies. This profile
        shrinks the virtual GPU proportionally (lower throughputs, lower
        overheads) so the compute : overhead ratio of a step matches the
        paper-scale regime, where the 32% device gap is fully visible in
        step times. Absolute times only set the unit of the x-axes.
        """
        return cls(
            dense_flops_per_s=1.5e11,
            sparse_flops_per_s=1.0e10,
            update_flops_per_s=1.0e10,
            kernel_launch_s=2.0e-6,
            h2d_bytes_per_s=6.0e9,
            step_overhead_s=5.0e-6,
        )


class GpuCostModel:
    """Prices SGD steps and model transfers for a virtual GPU."""

    def __init__(self, params: GpuCostParams = GpuCostParams()):
        self.params = params

    def launch_overhead(self, n_active_gpus: int) -> float:
        """Per-step kernel-launch cost, inflated by CUDA-scheduler interference."""
        if n_active_gpus < 1:
            raise ConfigurationError(f"n_active_gpus must be >= 1, got {n_active_gpus}")
        interference = 1.0 + self.params.interference_per_gpu * (n_active_gpus - 1)
        return (
            self.params.kernels_per_step_fused
            * self.params.kernel_launch_s
            * interference
        )

    def step_time(
        self,
        workload: StepWorkload,
        *,
        speed: float = 1.0,
        n_active_gpus: int = 1,
    ) -> float:
        """Seconds one SGD step takes at the given relative ``speed``.

        ``speed`` is the device's current performance multiplier (1.0 =
        nominal); compute scales inversely with it. Launch overhead does not
        (it is a host/driver cost), matching the paper's observation that
        interference affects all GPUs.
        """
        if not (speed > 0):
            raise ConfigurationError(f"speed must be > 0, got {speed}")
        flops = estimate_step_flops(
            workload.batch_size, workload.batch_nnz, workload.layer_dims,
            active_labels=workload.active_labels,
        )
        compute = (
            flops["sparse"] / self.params.sparse_flops_per_s
            + flops["dense"] / self.params.dense_flops_per_s
            + flops["update"] / self.params.update_flops_per_s
        ) / speed
        transfer = workload.batch_bytes / self.params.h2d_bytes_per_s
        return (
            compute
            + transfer
            + self.launch_overhead(n_active_gpus)
            + self.params.step_overhead_s
        )

    def inference_time(
        self,
        workload: StepWorkload,
        *,
        speed: float = 1.0,
        n_active_gpus: int = 1,
    ) -> float:
        """Seconds one forward-only (serving) pass takes at ``speed``.

        Same pricing structure as :meth:`step_time` but over
        :func:`estimate_inference_flops` and roughly a third of the kernel
        launches (no backward or optimizer kernels run). The fixed launch +
        step overhead is what adaptive micro-batching amortizes: per-request
        cost falls as the dispatcher coalesces more queries per pass.
        """
        if not (speed > 0):
            raise ConfigurationError(f"speed must be > 0, got {speed}")
        flops = estimate_inference_flops(
            workload.batch_size, workload.batch_nnz, workload.layer_dims,
            active_labels=workload.active_labels,
        )
        compute = (
            flops["sparse"] / self.params.sparse_flops_per_s
            + flops["dense"] / self.params.dense_flops_per_s
        ) / speed
        transfer = workload.batch_bytes / self.params.h2d_bytes_per_s
        # Forward-only launches ~ a third of a full training step's kernels.
        launch = self.launch_overhead(n_active_gpus) / 3.0
        return compute + transfer + launch + self.params.step_overhead_s

    def lsh_inference_time(
        self,
        workload: StepWorkload,
        candidate_fraction: float,
        *,
        n_tables: int = 16,
        n_bits: int = 12,
        n_probes: int = 1,
        speed: float = 1.0,
        n_active_gpus: int = 1,
    ) -> float:
        """Seconds one LSH-accelerated (serving) pass takes at ``speed``.

        The approximate scorer runs the same trunk as :meth:`inference_time`
        up to the last hidden layer, then replaces the dense ``(b, L)``
        output GEMM with: a signature hash (``n_tables × n_bits`` dense
        projections), a candidate gather-dot over ``candidate_fraction · L``
        labels per query priced at *sparse* throughput (it is irregular
        gather work, not a GEMM), and a candidate-sized top-k priced at the
        memory-bound update throughput. Half the launch overhead of a full
        step — the pipeline is fused into probe/gather/score/topk kernels,
        more launches than the plain forward's single output GEMM.

        This is the crossover oracle: ``auto`` serving compares it against
        :meth:`inference_time` per batch using the predictor's *observed*
        candidate fraction, so the decision tracks retrieval selectivity —
        LSH wins when ``candidate_fraction`` is far below the sparse:dense
        throughput ratio, exact wins on small label spaces where candidate
        sets cover most of the output layer anyway.
        """
        if not (speed > 0):
            raise ConfigurationError(f"speed must be > 0, got {speed}")
        if not (0.0 <= candidate_fraction <= 1.0):
            raise ConfigurationError(
                f"candidate_fraction must be in [0, 1], got {candidate_fraction}"
            )
        if n_tables < 1 or n_bits < 1 or n_probes < 1:
            raise ConfigurationError(
                "n_tables, n_bits and n_probes must all be >= 1"
            )
        b = workload.batch_size
        L = workload.layer_dims[-1]
        h = workload.layer_dims[-2]
        active = max(1.0, candidate_fraction * L)
        full = estimate_inference_flops(
            workload.batch_size, workload.batch_nnz, workload.layer_dims
        )
        # Trunk = every dense GEMM except the (b, h, L) output product.
        trunk_dense = full["dense"] - 2.0 * b * h * L
        hash_flops = 2.0 * b * n_tables * n_bits * h
        candidate_flops = 2.0 * b * h * active
        topk_flops = 2.0 * b * active
        compute = (
            full["sparse"] / self.params.sparse_flops_per_s
            + (trunk_dense + hash_flops) / self.params.dense_flops_per_s
            + candidate_flops / self.params.sparse_flops_per_s
            + topk_flops / self.params.update_flops_per_s
        ) / speed
        transfer = workload.batch_bytes / self.params.h2d_bytes_per_s
        launch = self.launch_overhead(n_active_gpus) / 2.0
        return compute + transfer + launch + self.params.step_overhead_s

    def lsh_rebuild_time(
        self,
        n_labels: int,
        dim: int,
        *,
        n_tables: int = 16,
        n_bits: int = 12,
        n_active_gpus: int = 1,
    ) -> float:
        """Seconds to warm a swapped-in model's serving index at nominal speed.

        Prices what :meth:`~repro.serve.predictor.Predictor.rebuild_lsh`
        does when a hot-swap stages a new snapshot: hash all ``L`` output
        columns through the ``n_tables × n_bits`` signature projections
        (one dense GEMM), scatter the codes into the tables plus rebuild
        the flat sorted-key view (memory-bound, priced at update
        throughput), and re-cache the contiguous ``W_out.T`` gather stream
        (a transpose copy, also memory-bound). Half a step's launch
        overhead: the rebuild is a handful of fused kernels, and it runs
        *off* the dispatch path — this cost is the swap's warming time, not
        any request's service time.
        """
        if n_labels < 1 or dim < 1:
            raise ConfigurationError(
                f"n_labels and dim must be >= 1, got {n_labels}, {dim}"
            )
        if n_tables < 1 or n_bits < 1:
            raise ConfigurationError("n_tables and n_bits must be >= 1")
        hash_flops = 2.0 * n_labels * n_tables * n_bits * dim
        scatter_flops = 2.0 * n_labels * n_tables
        recache_flops = 2.0 * n_labels * dim
        compute = (
            hash_flops / self.params.dense_flops_per_s
            + (scatter_flops + recache_flops) / self.params.update_flops_per_s
        )
        launch = self.launch_overhead(n_active_gpus) / 2.0
        return compute + launch + self.params.step_overhead_s

    def model_transfer_time(self, nbytes: int) -> float:
        """Host↔device time to move a model replica of ``nbytes``."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        return nbytes / self.params.h2d_bytes_per_s


@dataclass(frozen=True)
class CpuCostParams:
    """Cost constants for the CPU device running SLIDE-style training.

    Per-sample cost follows SLIDE's design: hashing + a forward/backward
    restricted to the *active* output neurons, executed across many threads
    with near-linear scaling (SLIDE's updates are Hogwild-sparse and rarely
    collide).
    """

    #: Per-core effective throughput (flop/s) — ~2 orders below a GPU.
    flops_per_s_per_core: float = 2.0e9
    #: Hash-table probe + bucket gather cost per sample (seconds).
    lsh_lookup_s: float = 2.0e-6
    #: Thread-scaling efficiency in (0, 1]; 1.0 = perfectly linear.
    thread_efficiency: float = 0.85

    def __post_init__(self) -> None:
        check_positive("flops_per_s_per_core", self.flops_per_s_per_core)
        check_positive("lsh_lookup_s", self.lsh_lookup_s)
        if not (0.0 < self.thread_efficiency <= 1.0):
            raise ConfigurationError(
                f"thread_efficiency must be in (0, 1], got {self.thread_efficiency}"
            )

    @classmethod
    def tiny_model_profile(cls) -> "CpuCostParams":
        """CPU constants matched to :meth:`GpuCostParams.tiny_model_profile`.

        The scaled-down GPU profile shrinks device throughput; the host CPU
        must shrink proportionally or the simulated CPU:GPU speed ratio
        collapses to ~1 and SLIDE's defining trade-off (many more updates at
        much lower hardware efficiency) disappears. The defaults keep the
        full 32-thread CPU roughly 25x slower than one virtual GPU on dense
        work — the same order as a real Cascade Lake host vs one V100.
        """
        return cls(flops_per_s_per_core=2.5e8, lsh_lookup_s=5.0e-7)


class CpuCostModel:
    """Prices SLIDE-style per-sample updates on a multicore CPU."""

    def __init__(self, params: CpuCostParams = CpuCostParams()) -> None:
        self.params = params

    def samples_time(
        self, per_sample_flops: float, n_samples: int, n_threads: int
    ) -> float:
        """Seconds for ``n_samples`` per-sample updates across ``n_threads``."""
        if n_threads < 1:
            raise ConfigurationError(f"n_threads must be >= 1, got {n_threads}")
        per_sample = (
            per_sample_flops / self.params.flops_per_s_per_core
            + self.params.lsh_lookup_s
        )
        effective_threads = 1.0 + self.params.thread_efficiency * (n_threads - 1)
        return per_sample * n_samples / effective_threads
