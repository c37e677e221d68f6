"""CROSSBOW-style synchronous model averaging (SMA) baseline.

CROSSBOW [Koliousis et al., PVLDB'19] trains one *learner* per GPU and keeps
a central average model; every batch, each learner applies its gradient
**plus a correction toward the central model**, and the central model
absorbs the aggregate correction (the synchronous variant of elastic
averaging / EASGD). §V-B of our paper: "The model update in CROSSBOW
includes the deviation of the local replica from the global model" and notes
its "sensitive global model update that can lead to divergent local
replicas" — poor accuracy on Amazon-670k, instability on Delicious-200k.

Per step, with learners ``w_i``, central model ``z`` and elasticity ``mu``::

    c_i = mu * (w_i - z)
    w_i <- w_i - lr * grad_i - c_i
    z   <- z + sum_i c_i

The paper reimplements CROSSBOW inside HeteroGPU (the original lacks sparse
support), so step costs use the same kernels as Elastic/Adaptive, with a
per-batch synchronization barrier plus a per-batch collective to exchange
corrections.
"""

from __future__ import annotations

from typing import List

from repro.comm.allreduce import AllReduceAlgorithm
from repro.comm.ring import RingAllReduce
from repro.core.config import AdaptiveSGDConfig
from repro.data.batching import BatchCursor
from repro.data.dataset import XMLTask
from repro.gpu.cluster import MultiGPUServer
from repro.gpu.cost import StepWorkload
from repro.harness.trainer_base import TrainerBase
from repro.harness.traces import TrainingTrace
from repro.sim.environment import Environment
from repro.sparse.model_state import ModelState
from repro.telemetry.events import (
    COUNTER_UPDATES,
    SPAN_ALLREDUCE,
    SPAN_MERGE,
    SPAN_STEP,
)
from repro.utils.validation import check_in_range

__all__ = ["CrossbowTrainer"]


class CrossbowTrainer(TrainerBase):
    """Synchronous model averaging with per-learner correction terms."""

    algorithm = "CROSSBOW"

    def __init__(
        self,
        task: XMLTask,
        server: MultiGPUServer,
        config: AdaptiveSGDConfig,
        *,
        elasticity: float = 0.1,
        allreduce: AllReduceAlgorithm = None,
        **kwargs,
    ) -> None:
        super().__init__(task, server, config, **kwargs)
        check_in_range("elasticity", elasticity, 0.0, 1.0)
        self.elasticity = float(elasticity)
        self.allreduce = allreduce or RingAllReduce(n_streams=server.n_gpus)

    def _execute(self, env: Environment, time_budget_s: float) -> TrainingTrace:
        n = self.server.n_gpus
        cfg = self.config
        layer_dims = tuple(self.arch.layer_dims)
        cursor = BatchCursor(self.task.train, seed=self.data_seed)

        central = self.initial_state()
        learners: List[ModelState] = [central.copy() for _ in range(n)]
        grads = [self.mlp.zeros_state() for _ in range(n)]
        model_bytes = central.nbytes

        trace = self.new_trace(n)
        trace.metadata["config"] = cfg
        trace.metadata["mu"] = self.elasticity

        total_updates = 0
        samples_per_checkpoint = cfg.mega_batch_size
        tel = self.telemetry

        def learner_step(gpu_id: int, batch):
            gpu = self.server.gpus[gpu_id]
            work = StepWorkload(batch.size, batch.nnz, layer_dims)
            dt = gpu.step_time(work, env.now, n_active_gpus=n)
            with tel.span(
                SPAN_STEP, device=gpu_id, size=batch.size, nnz=batch.nnz
            ):
                yield env.timeout(dt)
                gpu.record_busy(dt)
                out = self.mlp.loss_and_grad(
                    batch, learners[gpu_id], grad_out=grads[gpu_id],
                    workspace=self.workspace,
                )
            tel.counter(COUNTER_UPDATES, 1, device=gpu_id)
            return out

        def driver():
            nonlocal total_updates
            self.record_device_controls([cfg.b_max] * n, [cfg.base_lr] * n)
            self.record_checkpoint(
                trace, env, epochs=0.0, updates=0, samples=0,
                state=central, loss=float("nan"),
            )
            loss_sum, loss_count = 0.0, 0
            next_checkpoint = samples_per_checkpoint
            while env.now < time_budget_s:
                batches = [cursor.next_batch(cfg.b_max) for _ in range(n)]
                steps = [
                    env.process(learner_step(i, batches[i]), name=f"xbow-{i}")
                    for i in range(n)
                ]
                results = yield env.all_of(steps)
                with tel.span(SPAN_MERGE, branch="sma"):
                    # Correction exchange: one collective over the learners.
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

                    # SMA update: gradients + elastic corrections, central.
                    for i, (loss, grad) in enumerate(results):
                        w = learners[i]
                        # c_i = mu (w_i - z); applied to learner and center.
                        correction = w.vector - central.vector
                        correction *= self.elasticity
                        w.add_scaled(grad, -cfg.base_lr)
                        w.vector -= correction
                        central.vector += correction
                        total_updates += 1
                        loss_sum += loss
                        loss_count += 1

                if cursor.samples_served >= next_checkpoint:
                    next_checkpoint += samples_per_checkpoint
                    self.record_device_controls(
                        [cfg.b_max] * n, [cfg.base_lr] * n
                    )
                    self.record_checkpoint(
                        trace, env,
                        epochs=cursor.epochs_completed,
                        updates=total_updates,
                        samples=cursor.samples_served,
                        state=central,
                        loss=loss_sum / max(loss_count, 1),
                    )
                    loss_sum, loss_count = 0.0, 0
            return trace

        env.run_until_complete(env.process(driver(), name="xbow-driver"))
        return trace
