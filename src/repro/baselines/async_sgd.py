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

from repro.data.batching import BatchCursor
from repro.harness.trainer_base import TrainerBase, TrainingRun
from repro.sparse.optimizer import sgd_step

__all__ = ["AsyncSGDTrainer"]


class AsyncSGDTrainer(TrainerBase):
    """Barrier-free shared-model SGD across all GPUs."""

    algorithm = "Async SGD"
    driver_name = "async-driver"

    def worker(self, run: TrainingRun, gpu_id: int):
        """One GPU, stepping until the run ends (it is abandoned mid-step
        when the driver returns; ``TrainerBase.run`` then drops it)."""
        cfg = self.config
        while True:
            batch = run.cursor.next_batch(cfg.b_max)
            # Snapshot semantics: the gradient is computed against the
            # model as of dispatch time...
            snapshot = run.shared.copy()
            loss, grad = yield from self.device_step(
                run, gpu_id, batch, snapshot, run.grad,
                n_active=self.server.n_gpus,
            )
            # ...and applied to whatever the shared model is *now* —
            # that gap is the staleness.
            sgd_step(run.shared, grad, cfg.base_lr)
            run.record_update(loss)

    def driver(self, run: TrainingRun):
        n = self.server.n_gpus
        cfg, env = self.config, run.env
        cursor = run.cursor = BatchCursor(self.task.train, seed=self.data_seed)
        shared = run.shared = self.initial_state()
        # One gradient buffer: a step applies it before the next step fills it.
        run.grad = self.mlp.zeros_state()
        controls = ([cfg.b_max] * n, [cfg.base_lr] * n)

        self.checkpoint(run, shared, controls=controls)
        for i in range(n):
            env.process(self.worker(run, i), name=f"async-worker-{i}")
        while run.in_budget:
            # Poll at checkpoint granularity without a global barrier.
            while cursor.samples_served < run.next_checkpoint and run.in_budget:
                yield env.timeout(run.budget_s / 1000.0)
            run.next_checkpoint = cursor.samples_served + cfg.mega_batch_size
            self.checkpoint(
                run, shared,
                epochs=cursor.epochs_completed,
                samples=cursor.samples_served,
                controls=controls,
            )
