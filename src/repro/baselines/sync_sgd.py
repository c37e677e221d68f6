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

from typing import List

from repro.comm.allreduce import AllReduceAlgorithm
from repro.comm.tree import TreeAllReduce
from repro.core.config import AdaptiveSGDConfig
from repro.data.batching import BatchCursor
from repro.data.dataset import XMLTask
from repro.gpu.cluster import MultiGPUServer
from repro.gpu.cost import StepWorkload
from repro.harness.trainer_base import TrainerBase
from repro.harness.traces import TrainingTrace
from repro.sim.environment import Environment
from repro.sparse.model_state import ModelState, weighted_average
from repro.sparse.optimizer import sgd_step
from repro.telemetry.events import (
    COUNTER_UPDATES,
    SPAN_ALLREDUCE,
    SPAN_MERGE,
    SPAN_STEP,
)

__all__ = ["SyncSGDTrainer"]


class SyncSGDTrainer(TrainerBase):
    """Per-batch synchronous gradient aggregation (TF-mirrored analogue)."""

    algorithm = "TensorFlow"

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
            raise ValueError(
                f"framework_overhead must be >= 1, got {framework_overhead}"
            )
        self.framework_overhead = float(framework_overhead)
        if strategy not in self.STRATEGIES:
            raise ValueError(
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

    def _execute(self, env: Environment, time_budget_s: float) -> TrainingTrace:
        n = self.server.n_gpus
        cfg = self.config
        layer_dims = tuple(self.arch.layer_dims)
        # Mirrored strategy: the global batch (b_max) is sharded over GPUs.
        shard = max(1, cfg.b_max // n)
        cursor = BatchCursor(self.task.train, seed=self.data_seed)

        model = self.initial_state()
        grads: List[ModelState] = [self.mlp.zeros_state() for _ in range(n)]
        model_bytes = model.nbytes

        trace = self.new_trace(n)
        trace.metadata["config"] = cfg
        trace.metadata["framework_overhead"] = self.framework_overhead
        trace.metadata["strategy"] = self.strategy

        total_updates = 0
        samples_per_checkpoint = cfg.mega_batch_size

        tel = self.telemetry

        def gpu_step(gpu_id: int, batch):
            """One shard's gradient computation (a simulation process)."""
            gpu = self.server.gpus[gpu_id]
            work = StepWorkload(batch.size, batch.nnz, layer_dims)
            dt = gpu.step_time(work, env.now, n_active_gpus=n)
            dt *= self.framework_overhead
            with tel.span(
                SPAN_STEP, device=gpu_id, size=batch.size, nnz=batch.nnz
            ):
                yield env.timeout(dt)
                gpu.record_busy(dt)
                out = self.mlp.loss_and_grad(
                    batch, model, grad_out=grads[gpu_id],
                    workspace=self.workspace,
                )
            tel.counter(COUNTER_UPDATES, 1, device=gpu_id)
            return out

        def driver():
            nonlocal total_updates
            self.record_device_controls([shard] * n, [cfg.base_lr] * n)
            self.record_checkpoint(
                trace, env, epochs=0.0, updates=0, samples=0,
                state=model, loss=float("nan"),
            )
            loss_sum, loss_count = 0.0, 0
            next_checkpoint = samples_per_checkpoint
            while env.now < time_budget_s:
                shards = [cursor.next_batch(shard) for _ in range(n)]
                steps = [
                    env.process(gpu_step(i, shards[i]), name=f"tf-shard-{i}")
                    for i in range(n)
                ]
                # Per-batch barrier: the step takes as long as its slowest shard.
                results = yield env.all_of(steps)
                # Per-batch gradient synchronization (strategy-dependent).
                with tel.span(SPAN_MERGE, strategy=self.strategy):
                    sync = self._sync_time(model_bytes)
                    with tel.span(
                        SPAN_ALLREDUCE,
                        algorithm=self.allreduce.name
                        if self.strategy == "mirrored" else "host-aggregate",
                        nbytes=model_bytes,
                        total_s=sync,
                    ):
                        if sync > 0:
                            yield env.timeout(sync)
                    # Average the shard gradients (they cover equal sample
                    # counts) and apply the identical update on every
                    # (mirrored) replica.
                    grad = weighted_average(
                        [g for _, g in results], [1.0 / n] * n
                    )
                    sgd_step(model, grad, cfg.base_lr)
                total_updates += 1
                loss_sum += sum(loss for loss, _ in results) / n
                loss_count += 1

                if cursor.samples_served >= next_checkpoint:
                    next_checkpoint += samples_per_checkpoint
                    self.record_device_controls(
                        [shard] * n, [cfg.base_lr] * n
                    )
                    self.record_checkpoint(
                        trace, env,
                        epochs=cursor.epochs_completed,
                        updates=total_updates,
                        samples=cursor.samples_served,
                        state=model,
                        loss=loss_sum / max(loss_count, 1),
                    )
                    loss_sum, loss_count = 0.0, 0
            return trace

        env.run_until_complete(env.process(driver(), name="tf-driver"))
        return trace
