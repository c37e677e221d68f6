"""Elastic SGD — elastic model averaging / K-step averaging baseline.

§II-§III: "Elastic model averaging imposes a strict requirement that every
GPU has to process the same number of batches with the same size between two
model averaging stages." All GPUs train at ``b_max``; each processes its
fixed share of the mega-batch; merging waits for the **slowest** GPU (the
straggler problem Adaptive SGD removes). The merge itself uses the same
HeteroGPU update rule as Adaptive SGD — equal-weight averaging plus the
momentum term — which is why the two coincide on a single GPU (Figure 4's
shared curve).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.comm.allreduce import AllReduceAlgorithm
from repro.comm.ring import RingAllReduce
from repro.core.config import AdaptiveSGDConfig
from repro.core.merging import MergeWeights, merge_models
from repro.data.batching import BatchCursor
from repro.data.dataset import XMLTask
from repro.gpu.cluster import MultiGPUServer
from repro.gpu.cost import StepWorkload
from repro.harness.trainer_base import TrainerBase
from repro.harness.traces import TrainingTrace
from repro.sim.environment import Environment
from repro.sparse.model_state import ModelState
from repro.sparse.optimizer import sgd_step
from repro.telemetry.events import (
    COUNTER_UPDATES,
    GAUGE_STALENESS,
    SPAN_ALLREDUCE,
    SPAN_MERGE,
    SPAN_STEP,
    SPAN_TRANSFER,
)

__all__ = ["ElasticSGDTrainer"]


class ElasticSGDTrainer(TrainerBase):
    """K-step elastic model averaging with static, equal batch assignment."""

    algorithm = "Elastic SGD"

    def __init__(
        self,
        task: XMLTask,
        server: MultiGPUServer,
        config: AdaptiveSGDConfig,
        *,
        allreduce: AllReduceAlgorithm = None,
        **kwargs,
    ) -> None:
        super().__init__(task, server, config, **kwargs)
        self.allreduce = allreduce or RingAllReduce(n_streams=server.n_gpus)

    def _execute(self, env: Environment, time_budget_s: float) -> TrainingTrace:
        n = self.server.n_gpus
        cfg = self.config
        layer_dims = tuple(self.arch.layer_dims)
        # Static assignment: every GPU runs the same number of b_max batches
        # per mega-batch.
        batches_per_gpu = max(1, round(cfg.mega_batch_batches / n))

        cursor = BatchCursor(self.task.train, seed=self.data_seed)
        global_model = self.initial_state()
        prev_global = global_model.copy()
        replicas: List[ModelState] = [global_model.copy() for _ in range(n)]
        grads = [self.mlp.zeros_state() for _ in range(n)]
        model_bytes = global_model.nbytes
        reduce_work = np.empty((n, global_model.n_params), dtype=np.float32)
        uniform = MergeWeights(
            alphas=tuple(1.0 / n for _ in range(n)),
            branch="uniform",
            perturbed=False,
        )

        trace = self.new_trace(n)
        trace.metadata["config"] = cfg
        total_updates = 0
        loss_acc = {"sum": 0.0, "count": 0}

        tel = self.telemetry

        def worker(gpu_id: int):
            nonlocal total_updates
            gpu = self.server.gpus[gpu_id]
            with tel.span(SPAN_TRANSFER, device=gpu_id, nbytes=model_bytes):
                yield env.timeout(gpu.model_transfer_time(model_bytes))
            for _ in range(batches_per_gpu):
                # Static partitioning: batch size never adapts.
                batch = cursor.next_batch(cfg.b_max)
                work = StepWorkload(batch.size, batch.nnz, layer_dims)
                dt = gpu.step_time(work, env.now, n_active_gpus=n)
                with tel.span(
                    SPAN_STEP, device=gpu_id, size=batch.size, nnz=batch.nnz
                ):
                    yield env.timeout(dt)
                    gpu.record_busy(dt)
                    loss, grad = self.mlp.loss_and_grad(
                        batch, replicas[gpu_id], grad_out=grads[gpu_id],
                        workspace=self.workspace,
                    )
                    sgd_step(replicas[gpu_id], grad, cfg.base_lr)
                tel.counter(COUNTER_UPDATES, 1, device=gpu_id)
                loss_acc["sum"] += loss
                loss_acc["count"] += 1
                total_updates += 1
            return gpu_id

        def driver():
            self.record_device_controls([cfg.b_max] * n, [cfg.base_lr] * n)
            self.record_checkpoint(
                trace, env, epochs=0.0, updates=0, samples=0,
                state=global_model, loss=float("nan"),
            )
            while env.now < time_budget_s:
                workers = [
                    env.process(worker(i), name=f"elastic-worker-{i}")
                    for i in range(n)
                ]
                # The merge barrier: wait for the slowest GPU.
                yield env.all_of(workers)
                tel.gauge(GAUGE_STALENESS, 0)
                with tel.span(SPAN_MERGE, branch="uniform"):
                    timing = self.allreduce.time_seconds(
                        model_bytes, self.server.topology
                    )
                    with tel.span(
                        SPAN_ALLREDUCE,
                        algorithm=self.allreduce.name,
                        nbytes=model_bytes,
                        **timing.to_args(),
                    ):
                        if timing.total_s > 0:
                            yield env.timeout(timing.total_s)
                        reduced_vec = self.allreduce.reduce(
                            [r.vector for r in replicas], uniform.alphas,
                            work=reduce_work,
                        )
                    merge_models(
                        replicas, uniform, global_model, prev_global,
                        gamma=cfg.gamma,
                        reduced=ModelState.from_vector(
                            global_model.spec, reduced_vec
                        ),
                    )
                self.record_device_controls(
                    [cfg.b_max] * n, [cfg.base_lr] * n
                )
                trace.batch_size_history.append(tuple([cfg.b_max] * n))
                trace.perturbation_history.append(False)
                trace.merge_branch_history.append("uniform")
                trace.staleness_history.append(0)
                for replica in replicas:
                    replica.copy_from(global_model)
                mean_loss = (
                    loss_acc["sum"] / loss_acc["count"]
                    if loss_acc["count"]
                    else float("nan")
                )
                loss_acc["sum"] = 0.0
                loss_acc["count"] = 0
                self.record_checkpoint(
                    trace, env,
                    epochs=cursor.epochs_completed,
                    updates=total_updates,
                    samples=cursor.samples_served,
                    state=global_model,
                    loss=mean_loss,
                )
            return trace

        env.run_until_complete(env.process(driver(), name="elastic-driver"))
        return trace
