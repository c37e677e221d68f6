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

from repro.core.merging import MergeWeights, merge_models
from repro.data.batching import BatchCursor
from repro.harness.traces import Boundary
from repro.harness.trainer_base import TrainerBase, TrainingRun
from repro.sparse.model_state import ModelState
from repro.sparse.optimizer import sgd_step
from repro.telemetry.events import GAUGE_STALENESS, SPAN_MERGE, SPAN_TRANSFER

__all__ = ["ElasticSGDTrainer"]


class ElasticSGDTrainer(TrainerBase):
    """K-step elastic model averaging with static, equal batch assignment."""

    algorithm = "Elastic SGD"
    driver_name = "elastic-driver"

    def worker(self, run: TrainingRun, gpu_id: int):
        """One GPU's fixed share of a mega-batch."""
        cfg = self.config
        gpu = self.server.gpus[gpu_id]
        replica = run.replicas[gpu_id]
        with self.telemetry.span(
            SPAN_TRANSFER, device=gpu_id, nbytes=replica.nbytes
        ):
            yield run.env.timeout(gpu.model_transfer_time(replica.nbytes))
        for _ in range(run.batches_per_gpu):
            # Static partitioning: batch size never adapts.
            batch = run.cursor.next_batch(cfg.b_max)
            loss, grad = yield from self.device_step(
                run, gpu_id, batch, replica, run.grad,
                n_active=self.server.n_gpus,
            )
            sgd_step(replica, grad, cfg.base_lr)
            run.record_update(loss)
        return gpu_id

    def driver(self, run: TrainingRun):
        n = self.server.n_gpus
        cfg, tel = self.config, self.telemetry
        # Static assignment: every GPU runs the same number of b_max batches
        # per mega-batch.
        run.batches_per_gpu = max(1, round(cfg.mega_batch_batches / n))
        cursor = run.cursor = BatchCursor(self.task.train, seed=self.data_seed)
        global_model = self.initial_state()
        prev_global = global_model.copy()
        replicas = run.replicas = [global_model.copy() for _ in range(n)]
        # One gradient buffer: a step applies it before the next step fills it.
        run.grad = self.mlp.zeros_state()
        uniform = MergeWeights(
            alphas=tuple(1.0 / n for _ in range(n)),
            branch="uniform",
            perturbed=False,
        )
        controls = ([cfg.b_max] * n, [cfg.base_lr] * n)

        self.checkpoint(run, global_model, controls=controls)
        while run.in_budget:
            # The merge barrier: wait for the slowest GPU.
            yield run.env.all_of([
                run.env.process(self.worker(run, i), name=f"elastic-worker-{i}")
                for i in range(n)
            ])
            tel.gauge(GAUGE_STALENESS, 0)
            with tel.span(SPAN_MERGE, branch="uniform"):
                reduced_vec = yield from self.collective(
                    run, global_model.nbytes,
                    vectors=[r.vector for r in replicas],
                    weights=uniform.alphas,
                )
                merge_models(
                    replicas, uniform, global_model, prev_global,
                    gamma=cfg.gamma,
                    reduced=ModelState.from_vector(
                        global_model.spec, reduced_vec
                    ),
                )
            run.trace.boundaries.append(
                Boundary(tuple(controls[0]), False, "uniform", 0)
            )
            for replica in replicas:
                replica.copy_from(global_model)
            self.checkpoint(
                run, global_model,
                epochs=cursor.epochs_completed,
                samples=cursor.samples_served,
                controls=controls,
            )
