"""Plain single-GPU mini-batch SGD.

The degenerate single-device case every multi-GPU method collapses to
(§V-B: "When the testing configuration has a single GPU, all the methods
become mini-batch SGD"). Used as the reference curve, in examples, and in
tests that check the multi-GPU trainers reduce to it.
"""

from __future__ import annotations

from repro.data.batching import BatchCursor
from repro.harness.trainer_base import TrainerBase, TrainingRun
from repro.sparse.optimizer import sgd_step

__all__ = ["MiniBatchSGDTrainer"]


class MiniBatchSGDTrainer(TrainerBase):
    """Sequential mini-batch SGD on the server's first GPU."""

    algorithm = "Mini-batch SGD"
    driver_name = "minibatch-driver"
    n_devices = 1

    def driver(self, run: TrainingRun):
        cfg = self.config
        cursor = BatchCursor(self.task.train, seed=self.data_seed)
        state = self.initial_state()
        grad_out = self.mlp.zeros_state()
        controls = ([cfg.b_max], [cfg.base_lr])

        self.checkpoint(run, state, controls=controls)
        while run.in_budget:
            batch = cursor.next_batch(cfg.b_max)
            loss, grad = yield from self.device_step(
                run, 0, batch, state, grad_out, n_active=1
            )
            sgd_step(state, grad, cfg.base_lr)
            run.record_update(loss)
            self.checkpoint_if_due(
                run, state,
                epochs=cursor.epochs_completed,
                samples=cursor.samples_served,
                controls=controls,
            )
