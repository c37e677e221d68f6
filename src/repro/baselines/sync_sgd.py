"""TensorFlow-style synchronous gradient aggregation (mirrored strategy).

The paper's TensorFlow baseline extends the SLIDE testbed's single-GPU code
"to multi-GPUs ... with the mirrored strategy" (§V-A): every batch, each GPU
computes a partial gradient on its shard of the global batch against an
identical replica, the gradients are all-reduced, and every replica applies
the aggregated gradient — **a global synchronization after every batch**.

The two causes of its slow time-to-accuracy called out in §V-B are modeled
explicitly: (1) a per-step framework overhead factor (the TF runtime is a
general-purpose graph executor, slower per epoch than the specialized
HeteroGPU kernels) plus a single-stream all-reduce *per step*; and (2) the
per-batch global update itself, which makes every step pay the straggler
barrier that Elastic/Adaptive amortize over a mega-batch.

Both TensorFlow distribution strategies the paper tried are implemented:
``strategy="mirrored"`` (replicas on every GPU, gradients all-reduced
device-to-device — the variant the paper reports because it "proves
superior") and ``strategy="central_storage"`` (the model lives on the host;
every step ships gradients up over PCIe, aggregates on the CPU, and ships
the updated model back down — slower, kept for the strategy comparison).
"""

from __future__ import annotations

from repro.comm.allreduce import AllReduceAlgorithm
from repro.comm.tree import TreeAllReduce
from repro.core.config import AdaptiveSGDConfig
from repro.data.batching import BatchCursor
from repro.data.dataset import XMLTask
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import MultiGPUServer
from repro.harness.trainer_base import TrainerBase, TrainingRun
from repro.sparse.model_state import weighted_average
from repro.sparse.optimizer import sgd_step
from repro.telemetry.events import SPAN_MERGE

__all__ = ["SyncSGDTrainer"]


class SyncSGDTrainer(TrainerBase):
    """Per-batch synchronous gradient aggregation (TF-mirrored analogue)."""

    algorithm = "TensorFlow"
    driver_name = "tf-driver"

    STRATEGIES = ("mirrored", "central_storage")

    def __init__(
        self,
        task: XMLTask,
        server: MultiGPUServer,
        config: AdaptiveSGDConfig,
        *,
        allreduce: AllReduceAlgorithm = None,
        framework_overhead: float = 1.35,
        strategy: str = "mirrored",
        **kwargs,
    ) -> None:
        super().__init__(task, server, config, **kwargs)
        # Mirrored NCCL-style aggregation: single-stream collective.
        self.allreduce = allreduce or TreeAllReduce()
        if framework_overhead < 1.0:
            raise ConfigurationError(
                f"framework_overhead must be >= 1, got {framework_overhead}"
            )
        self.framework_overhead = float(framework_overhead)
        if strategy not in self.STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {self.STRATEGIES}, got {strategy!r}"
            )
        self.strategy = strategy

    def _sync_time(self, model_bytes: int) -> float:
        """Per-step synchronization cost under the selected strategy."""
        if self.strategy == "mirrored":
            return self.allreduce.time_seconds(
                model_bytes, self.server.topology
            ).total_s
        # Central storage: gradients host-ward + updated model device-ward,
        # serialized through the host link, plus a host-side aggregation
        # pass over the parameter vector per contributing GPU.
        n = self.server.n_gpus
        gpu0 = self.server.gpus[0]
        transfer = (n + 1) * gpu0.model_transfer_time(model_bytes)
        cpu_params = self.server.cpu.cost_model.params
        aggregate = (
            n * (model_bytes / 4.0) / cpu_params.flops_per_s_per_core
        )
        return transfer + aggregate

    def driver(self, run: TrainingRun):
        n = self.server.n_gpus
        cfg, env = self.config, run.env
        # Mirrored strategy: the global batch (b_max) is sharded over GPUs.
        shard = max(1, cfg.b_max // n)
        cursor = BatchCursor(self.task.train, seed=self.data_seed)
        model = self.initial_state()
        grads = [self.mlp.zeros_state() for _ in range(n)]
        controls = ([shard] * n, [cfg.base_lr] * n)
        run.trace.metadata["framework_overhead"] = self.framework_overhead
        run.trace.metadata["strategy"] = self.strategy
        collective_name = (
            self.allreduce.name if self.strategy == "mirrored"
            else "host-aggregate"
        )

        self.checkpoint(run, model, controls=controls)
        while run.in_budget:
            shards = [cursor.next_batch(shard) for _ in range(n)]
            # One process per shard against the identical replica; the
            # per-batch barrier takes as long as the slowest shard.
            results = yield env.all_of([
                env.process(
                    self.device_step(
                        run, i, shards[i], model, grads[i], n_active=n,
                        overhead=self.framework_overhead,
                    ),
                    name=f"tf-shard-{i}",
                )
                for i in range(n)
            ])
            # Per-batch gradient synchronization (strategy-dependent).
            with self.telemetry.span(SPAN_MERGE, strategy=self.strategy):
                yield from self.collective(
                    run, model.nbytes,
                    seconds=self._sync_time(model.nbytes),
                    algorithm=collective_name,
                )
                # Average the shard gradients (they cover equal sample
                # counts) and apply the identical update on every
                # (mirrored) replica.
                grad = weighted_average(
                    [g for _, g in results], [1.0 / n] * n
                )
                sgd_step(model, grad, cfg.base_lr)
            run.record_update(sum(loss for loss, _ in results) / n)
            self.checkpoint_if_due(
                run, model,
                epochs=cursor.epochs_completed,
                samples=cursor.samples_served,
                controls=controls,
            )
