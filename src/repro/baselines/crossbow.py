"""CROSSBOW-style synchronous model averaging (SMA) baseline.

CROSSBOW [Koliousis et al., PVLDB'19] trains one *learner* per GPU and keeps
a central average model; every batch, each learner applies its gradient
**plus a correction toward the central model**, and the central model
absorbs the aggregate correction (the synchronous variant of elastic
averaging / EASGD). §V-B of our paper: "The model update in CROSSBOW
includes the deviation of the local replica from the global model" and notes
its "sensitive global model update that can lead to divergent local
replicas" — poor accuracy on Amazon-670k, instability on Delicious-200k.

Per step, with learners ``w_i``, central model ``z`` and elasticity
``mu`` (:data:`ELASTICITY`)::

    c_i = mu * (w_i - z)
    w_i <- w_i - lr * grad_i - c_i
    z   <- z + sum_i c_i

The paper reimplements CROSSBOW inside HeteroGPU (the original lacks sparse
support), so step costs use the same kernels as Elastic/Adaptive, with a
per-batch synchronization barrier plus a per-batch collective to exchange
corrections.
"""

from __future__ import annotations

from repro.data.batching import BatchCursor
from repro.harness.trainer_base import TrainerBase, TrainingRun
from repro.telemetry.events import SPAN_MERGE

__all__ = ["CrossbowTrainer"]

#: The pull ``mu`` of every learner toward the central model.
ELASTICITY = 0.1


class CrossbowTrainer(TrainerBase):
    """Synchronous model averaging with per-learner correction terms."""

    algorithm = "CROSSBOW"
    driver_name = "xbow-driver"

    def driver(self, run: TrainingRun):
        n = self.server.n_gpus
        cfg, env = self.config, run.env
        cursor = BatchCursor(self.task.train, seed=self.data_seed)
        central = self.initial_state()
        learners = [central.copy() for _ in range(n)]
        grads = [self.mlp.zeros_state() for _ in range(n)]
        controls = ([cfg.b_max] * n, [cfg.base_lr] * n)
        run.trace.metadata["mu"] = ELASTICITY

        self.checkpoint(run, central, controls=controls)
        while run.in_budget:
            batches = [cursor.next_batch(cfg.b_max) for _ in range(n)]
            # One learner step per GPU, then the per-batch barrier.
            results = yield env.all_of([
                env.process(
                    self.device_step(
                        run, i, batches[i], learners[i], grads[i], n_active=n
                    ),
                    name=f"xbow-{i}",
                )
                for i in range(n)
            ])
            with self.telemetry.span(SPAN_MERGE, branch="sma"):
                # Correction exchange: one collective over the learners.
                yield from self.collective(run, central.nbytes)
                # SMA update: gradients + elastic corrections, central.
                for w, (loss, grad) in zip(learners, results):
                    # c_i = mu (w_i - z); applied to learner and center.
                    correction = w.vector - central.vector
                    correction *= ELASTICITY
                    w.add_scaled(grad, -cfg.base_lr)
                    w.vector -= correction
                    central.vector += correction
                    run.record_update(loss)
            self.checkpoint_if_due(
                run, central,
                epochs=cursor.epochs_completed,
                samples=cursor.samples_served,
                controls=controls,
            )
