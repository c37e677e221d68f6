"""Asynchronous SGD (Hogwild-across-GPUs) — supplementary baseline.

§II describes asynchronous SGD as the no-synchronization extreme of the
elastic-averaging spectrum: every GPU computes a gradient against the
current shared model and applies it immediately, with no barrier. The
gradient is therefore *stale* by however many updates other GPUs landed
while it was being computed — the staleness emerges naturally from the
event ordering in the simulation. The paper notes that "if performed over a
large number of epochs, asynchronous SGD can result in poor convergence";
this trainer exists to reproduce that spectrum endpoint and for the
extended analyses (it is not part of Figure 4's comparison set).
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

__all__ = ["AsyncSGDTrainer"]


class AsyncSGDTrainer(TrainerBase):
    """Barrier-free shared-model SGD across all GPUs."""

    algorithm = "Async SGD"

    def __init__(
        self,
        task: XMLTask,
        server: MultiGPUServer,
        config: AdaptiveSGDConfig,
        **kwargs,
    ) -> None:
        super().__init__(task, server, config, **kwargs)

    def _execute(self, env: Environment, time_budget_s: float) -> TrainingTrace:
        n = self.server.n_gpus
        cfg = self.config
        layer_dims = tuple(self.arch.layer_dims)
        cursor = BatchCursor(self.task.train, seed=self.data_seed)
        shared = self.initial_state()
        grads = [self.mlp.zeros_state() for _ in range(n)]

        trace = self.new_trace(n)
        trace.metadata["config"] = cfg
        counters = {"updates": 0, "loss_sum": 0.0, "loss_count": 0}
        stop = {"flag": False}

        tel = self.telemetry

        def worker(gpu_id: int):
            gpu = self.server.gpus[gpu_id]
            while not stop["flag"]:
                batch = cursor.next_batch(cfg.b_max)
                # Snapshot semantics: the gradient is computed against the
                # model as of dispatch time...
                snapshot = shared.copy()
                work = StepWorkload(batch.size, batch.nnz, layer_dims)
                dt = gpu.step_time(work, env.now, n_active_gpus=n)
                with tel.span(
                    SPAN_STEP, device=gpu_id, size=batch.size, nnz=batch.nnz
                ):
                    yield env.timeout(dt)
                    gpu.record_busy(dt)
                    loss, grad = self.mlp.loss_and_grad(
                        batch, snapshot, grad_out=grads[gpu_id],
                        workspace=self.workspace,
                    )
                    # ...and applied to whatever the shared model is *now* —
                    # that gap is the staleness.
                    sgd_step(shared, grad, cfg.base_lr)
                tel.counter(COUNTER_UPDATES, 1, device=gpu_id)
                counters["updates"] += 1
                counters["loss_sum"] += loss
                counters["loss_count"] += 1
            return gpu_id

        def driver():
            self.record_device_controls([cfg.b_max] * n, [cfg.base_lr] * n)
            self.record_checkpoint(
                trace, env, epochs=0.0, updates=0, samples=0,
                state=shared, loss=float("nan"),
            )
            workers = [
                env.process(worker(i), name=f"async-worker-{i}") for i in range(n)
            ]
            next_checkpoint = cfg.mega_batch_size
            while env.now < time_budget_s:
                # Poll at checkpoint granularity without a global barrier.
                while (
                    cursor.samples_served < next_checkpoint
                    and env.now < time_budget_s
                ):
                    yield env.timeout(time_budget_s / 1000.0)
                next_checkpoint = cursor.samples_served + cfg.mega_batch_size
                mean_loss = (
                    counters["loss_sum"] / counters["loss_count"]
                    if counters["loss_count"]
                    else float("nan")
                )
                counters["loss_sum"] = 0.0
                counters["loss_count"] = 0
                self.record_device_controls(
                    [cfg.b_max] * n, [cfg.base_lr] * n
                )
                self.record_checkpoint(
                    trace, env,
                    epochs=cursor.epochs_completed,
                    updates=counters["updates"],
                    samples=cursor.samples_served,
                    state=shared,
                    loss=mean_loss,
                )
            stop["flag"] = True
            return trace

        env.run_until_complete(env.process(driver(), name="async-driver"))
        return trace
