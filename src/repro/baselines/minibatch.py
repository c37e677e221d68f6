"""Plain single-GPU mini-batch SGD.

The degenerate single-device case every multi-GPU method collapses to
(§V-B: "When the testing configuration has a single GPU, all the methods
become mini-batch SGD"). Used as the reference curve, in examples, and in
tests that check the multi-GPU trainers reduce to it.
"""

from __future__ import annotations

from repro.core.config import AdaptiveSGDConfig
from repro.data.batching import BatchCursor
from repro.data.dataset import XMLTask
from repro.gpu.cluster import MultiGPUServer
from repro.gpu.cost import StepWorkload
from repro.harness.trainer_base import TrainerBase
from repro.harness.traces import TrainingTrace
from repro.sim.environment import Environment
from repro.sparse.optimizer import sgd_step
from repro.telemetry.events import COUNTER_UPDATES, SPAN_STEP

__all__ = ["MiniBatchSGDTrainer"]


class MiniBatchSGDTrainer(TrainerBase):
    """Sequential mini-batch SGD on the server's first GPU."""

    algorithm = "Mini-batch SGD"

    def __init__(
        self,
        task: XMLTask,
        server: MultiGPUServer,
        config: AdaptiveSGDConfig,
        **kwargs,
    ) -> None:
        super().__init__(task, server, config, **kwargs)

    def _execute(self, env: Environment, time_budget_s: float) -> TrainingTrace:
        cfg = self.config
        gpu = self.server.gpus[0]
        layer_dims = tuple(self.arch.layer_dims)
        cursor = BatchCursor(self.task.train, seed=self.data_seed)
        state = self.initial_state()
        grad = self.mlp.zeros_state()
        trace = self.new_trace(n_devices=1)
        trace.metadata["config"] = cfg

        def driver():
            self.record_device_controls([cfg.b_max], [cfg.base_lr])
            self.record_checkpoint(
                trace, env, epochs=0.0, updates=0, samples=0,
                state=state, loss=float("nan"),
            )
            updates = 0
            loss_sum, loss_count = 0.0, 0
            next_checkpoint = cfg.mega_batch_size
            tel = self.telemetry
            while env.now < time_budget_s:
                batch = cursor.next_batch(cfg.b_max)
                work = StepWorkload(batch.size, batch.nnz, layer_dims)
                dt = gpu.step_time(work, env.now, n_active_gpus=1)
                with tel.span(
                    SPAN_STEP, device=0, size=batch.size, nnz=batch.nnz
                ):
                    yield env.timeout(dt)
                    gpu.record_busy(dt)
                    loss, g = self.mlp.loss_and_grad(
                        batch, state, grad_out=grad, workspace=self.workspace
                    )
                    sgd_step(state, g, cfg.base_lr)
                tel.counter(COUNTER_UPDATES, 1, device=0)
                updates += 1
                loss_sum += loss
                loss_count += 1
                if cursor.samples_served >= next_checkpoint:
                    next_checkpoint += cfg.mega_batch_size
                    self.record_device_controls([cfg.b_max], [cfg.base_lr])
                    self.record_checkpoint(
                        trace, env,
                        epochs=cursor.epochs_completed,
                        updates=updates,
                        samples=cursor.samples_served,
                        state=state,
                        loss=loss_sum / max(loss_count, 1),
                    )
                    loss_sum, loss_count = 0.0, 0
            return trace

        env.run_until_complete(env.process(driver(), name="minibatch-driver"))
        return trace
