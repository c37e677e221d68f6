"""TensorFlow-style synchronous gradient aggregation (mirrored strategy).

The paper's TensorFlow baseline extends the SLIDE testbed's single-GPU code
"to multi-GPUs ... with the mirrored strategy" (§V-A): every batch, each GPU
computes a partial gradient on its shard of the global batch against an
identical replica, the gradients are all-reduced, and every replica applies
the aggregated gradient — **a global synchronization after every batch**.

The two causes of its slow time-to-accuracy called out in §V-B are modeled
explicitly: (1) a per-step framework overhead factor (the TF runtime is a
general-purpose graph executor, slower per epoch than the specialized
HeteroGPU kernels) plus a single-stream tree all-reduce *per step*; and (2)
the per-batch global update itself, which makes every step pay the
straggler barrier that Elastic/Adaptive amortize over a mega-batch.

Of the two TensorFlow distribution strategies the paper tried, this is the
one it reports because it "proves superior": ``mirrored``, replicas on
every GPU with gradients all-reduced device to device.
"""

from __future__ import annotations

from repro.comm.tree import TreeAllReduce
from repro.data.batching import BatchCursor
from repro.harness.trainer_base import TrainerBase, TrainingRun
from repro.sparse.model_state import weighted_average
from repro.sparse.optimizer import sgd_step
from repro.telemetry.events import SPAN_MERGE

__all__ = ["SyncSGDTrainer"]

#: Per-step cost factor of the TF runtime over the HeteroGPU kernels.
FRAMEWORK_OVERHEAD = 1.35
#: The distribution strategy (recorded in the trace and the merge span).
STRATEGY = "mirrored"


class SyncSGDTrainer(TrainerBase):
    """Per-batch synchronous gradient aggregation (TF-mirrored analogue)."""

    algorithm = "TensorFlow"
    driver_name = "tf-driver"

    def __init__(self, task, server, config, **kwargs) -> None:
        super().__init__(task, server, config, **kwargs)
        # Mirrored NCCL-style aggregation: single-stream collective.
        self.allreduce = TreeAllReduce()

    def driver(self, run: TrainingRun):
        n = self.server.n_gpus
        cfg, env = self.config, run.env
        # Mirrored strategy: the global batch (b_max) is sharded over GPUs.
        shard = max(1, cfg.b_max // n)
        cursor = BatchCursor(self.task.train, seed=self.data_seed)
        model = self.initial_state()
        grads = [self.mlp.zeros_state() for _ in range(n)]
        controls = ([shard] * n, [cfg.base_lr] * n)
        run.trace.metadata["framework_overhead"] = FRAMEWORK_OVERHEAD
        run.trace.metadata["strategy"] = STRATEGY
        sync_s = self.allreduce.time_seconds(
            model.nbytes, self.server.topology
        ).total_s

        self.checkpoint(run, model, controls=controls)
        while run.in_budget:
            shards = [cursor.next_batch(shard) for _ in range(n)]
            # One process per shard against the identical replica; the
            # per-batch barrier takes as long as the slowest shard.
            results = yield env.all_of([
                env.process(
                    self.device_step(
                        run, i, shards[i], model, grads[i], n_active=n,
                        overhead=FRAMEWORK_OVERHEAD,
                    ),
                    name=f"tf-shard-{i}",
                )
                for i in range(n)
            ])
            # Per-batch gradient synchronization; the span carries the
            # total only, not the tree's cost breakdown.
            with self.telemetry.span(SPAN_MERGE, strategy=STRATEGY):
                yield from self.collective(
                    run, model.nbytes, seconds=sync_s,
                    algorithm=self.allreduce.name,
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
