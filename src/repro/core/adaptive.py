"""Adaptive SGD — the paper's contribution, end to end.

One mega-batch proceeds exactly as in Figure 2:

1. Every GPU manager downloads the current global model (host→device
   transfer, priced by the cost model) — "only at the beginning of a
   mega-batch" (§IV).
2. Managers loop: ask the dynamic scheduler for a batch (cut at *their*
   current batch size), advance the simulation clock by the device's
   data-dependent step time, apply the real numeric SGD update to their
   replica, and report the completion. Faster GPUs simply come back for
   more batches — that *is* dynamic scheduling.
3. When the mega-batch's sample budget is exhausted, managers converge on
   the merge barrier. The merge runs as a simulated multi-stream ring
   all-reduce (time) whose numeric result feeds Algorithm 2 (normalized,
   perturbed, momentum-smoothed global update). Algorithm 1 then rescales
   every GPU's batch size and learning rate for the next mega-batch.
4. Test accuracy is measured (host-side, clock excluded) and the trace
   extended with the adaptivity telemetry of Figures 6a/6b.

Elastic membership (``membership=`` option): the same loop runs against a
:class:`~repro.elastic.membership.ClusterMembership` whose timeline may
remove, throttle, or add devices mid-run. The granularity is the *step*:
managers poll the event stream between batches (a sim timeout cannot be
interrupted), so a throttle takes effect on the next dispatch and a
departing device always finishes its in-flight batch first. At each merge
barrier the driver then settles accounting — a leaver's in-flight update
still merges with correct normalization, a failed replica's is discarded
exactly once (``UpdateLedger``), Algorithm 1 scales only the surviving
slots — and admits parked ``join`` events at the warm-start point: the new
replica copies the freshly merged global model and enters with the
Dynamic-Mini-batch ramped batch size/LR from
:func:`repro.core.scaling.rescale_for_membership`. With ``membership=None``
the code path is unchanged (bit-identical traces).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.comm.allreduce import AllReduceAlgorithm
from repro.comm.ring import RingAllReduce
from repro.core.config import AdaptiveSGDConfig
from repro.core.merging import compute_merge_weights, merge_models
from repro.core.scheduler import DynamicScheduler
from repro.core.staleness import StalenessTracker
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
    GAUGE_ACTIVE_DEVICES,
    GAUGE_STALENESS,
    SPAN_ALLREDUCE,
    SPAN_MERGE,
    SPAN_STEP,
    SPAN_TRANSFER,
)

__all__ = ["AdaptiveSGDTrainer"]


class AdaptiveSGDTrainer(TrainerBase):
    """Adaptive elastic model averaging SGD for heterogeneous multi-GPUs."""

    algorithm = "Adaptive SGD"

    def __init__(
        self,
        task: XMLTask,
        server: MultiGPUServer,
        config: AdaptiveSGDConfig,
        *,
        allreduce: Optional[AllReduceAlgorithm] = None,
        governor: bool = False,
        membership=None,
        **kwargs,
    ) -> None:
        super().__init__(task, server, config, **kwargs)
        # HeteroGPU's production merge: multi-stream ring with one stream
        # per GPU (the empirically optimal partition count, §IV).
        self.allreduce = allreduce or RingAllReduce(n_streams=server.n_gpus)
        self.governor = bool(governor)
        self.staleness = StalenessTracker()
        if membership is not None:
            from repro.elastic.membership import ClusterMembership
            from repro.exceptions import ConfigurationError

            if not isinstance(membership, ClusterMembership):
                raise ConfigurationError(
                    "membership must be a ClusterMembership, got "
                    f"{type(membership).__name__}"
                )
            if membership.server is not server:
                raise ConfigurationError(
                    "membership was built for a different server instance"
                )
        self.membership = membership

    # -- the training loop ------------------------------------------------------
    def _execute(self, env: Environment, time_budget_s: float) -> TrainingTrace:
        n = self.server.n_gpus
        membership = self.membership
        if membership is not None:
            membership.telemetry = self.telemetry
        layer_dims = tuple(self.arch.layer_dims)
        scheduler = DynamicScheduler(
            self.task.train,
            self.config,
            n,
            seed=self.data_seed,
            use_governor=self.governor,
            telemetry=self.telemetry,
        )
        global_model = self.initial_state()
        prev_global = global_model.copy()
        replicas: List[ModelState] = [global_model.copy() for _ in range(n)]
        grads: List[ModelState] = [self.mlp.zeros_state() for _ in range(n)]
        model_bytes = global_model.nbytes
        # Scratch rows for the merge collective's w_i * v_i contributions —
        # one allocation for the whole run instead of n per mega-batch.
        reduce_work = np.empty((n, global_model.n_params), dtype=np.float32)

        trace = self.new_trace(n)
        trace.metadata["config"] = self.config
        trace.metadata["allreduce"] = self.allreduce.name

        total_updates = 0
        loss_sum = 0.0
        loss_count = 0
        active = {"count": 0}

        tel = self.telemetry

        def manager(gpu_id: int):
            nonlocal loss_sum, loss_count, total_updates
            gpu = self.server.gpus[gpu_id]
            active["count"] += 1
            try:
                # Replica download at the start of the mega-batch.
                with tel.span(SPAN_TRANSFER, device=gpu_id, nbytes=model_bytes):
                    yield env.timeout(gpu.model_transfer_time(model_bytes))
                while True:
                    if membership is not None:
                        # Step-granular lifecycle: apply due events (joins
                        # stay parked for the boundary) and bow out if this
                        # device just left or failed.
                        membership.poll(env.now, admit_joins=False)
                        if not membership.is_active(gpu_id):
                            return gpu_id
                    batch = scheduler.try_dispatch(gpu_id)
                    if batch is None:
                        return gpu_id
                    work = StepWorkload(batch.size, batch.nnz, layer_dims)
                    dt = gpu.step_time(
                        work, env.now, n_active_gpus=max(1, active["count"])
                    )
                    with tel.span(
                        SPAN_STEP, device=gpu_id,
                        size=batch.size, nnz=batch.nnz,
                    ):
                        yield env.timeout(dt)
                        gpu.record_busy(dt)
                        loss, grad = self.mlp.loss_and_grad(
                            batch, replicas[gpu_id], grad_out=grads[gpu_id],
                            workspace=self.workspace,
                        )
                        sgd_step(
                            replicas[gpu_id], grad,
                            scheduler.learning_rates[gpu_id],
                        )
                    scheduler.record_completion(gpu_id)
                    tel.counter(COUNTER_UPDATES, 1, device=gpu_id)
                    loss_sum += loss
                    loss_count += 1
                    total_updates += 1
            finally:
                active["count"] -= 1

        def driver():
            nonlocal loss_sum, loss_count, reduce_work
            # Checkpoint 0: the shared initial model and initial controls.
            self.record_device_controls(
                scheduler.batch_sizes, scheduler.learning_rates
            )
            self.record_checkpoint(
                trace, env, epochs=0.0, updates=0, samples=0,
                state=global_model, loss=float("nan"),
            )
            while env.now < time_budget_s:
                if membership is not None:
                    spawned = [
                        i for i in range(scheduler.n_gpus)
                        if membership.is_active(i)
                    ]
                else:
                    spawned = list(range(n))
                workers = [
                    env.process(manager(i), name=f"gpu-manager-{i}")
                    for i in spawned
                ]
                yield env.all_of(workers)

                # ---- membership settlement at the barrier ----------------
                all_updates = tuple(scheduler.updates)
                if membership is not None:
                    membership.poll(env.now, admit_joins=False)
                    failed, departed, _ = membership.take_sync()
                    # Exactly-once merge accounting: every replica that ran
                    # this mega-batch offered its update; a failed replica's
                    # offer is discarded, everyone else's merges (a graceful
                    # leaver still merges with correct normalization).
                    for i in spawned:
                        token = membership.ledger.offer(i, all_updates[i])
                        membership.ledger.resolve(token, merged=i not in failed)
                else:
                    failed, departed = set(), set()
                merge_ids = [i for i in spawned if i not in failed]

                # ---- merge stage (Algorithm 2) --------------------------
                updates = tuple(all_updates[i] for i in merge_ids)
                self.staleness.observe(len(trace.batch_size_history), updates)
                tel.gauge(GAUGE_STALENESS, max(updates) - min(updates))
                with tel.span(SPAN_MERGE, branch=None) as merge_span:
                    weights = compute_merge_weights(
                        [scheduler.batch_sizes[i] for i in merge_ids],
                        updates,
                        [replicas[i].l2_norm_per_param() for i in merge_ids],
                        pert_thr=self.config.pert_thr,
                        delta=self.config.delta,
                        enable_perturbation=self.config.enable_perturbation,
                        weighting=self.config.merge_weighting,
                        renormalize=self.config.renormalize_perturbation,
                    )
                    merge_span.args["branch"] = weights.branch
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
                            [replicas[i].vector for i in merge_ids],
                            weights.alphas,
                            work=reduce_work[: len(merge_ids)],
                        )
                    reduced = ModelState.from_vector(
                        global_model.spec, reduced_vec
                    )
                    merge_models(
                        [replicas[i] for i in merge_ids], weights,
                        global_model, prev_global,
                        gamma=self.config.gamma, reduced=reduced,
                    )

                # ---- batch size scaling (Algorithm 1) + bookkeeping ------
                if membership is not None:
                    for i in failed:
                        scheduler.deactivate(i, discard=True)
                    for i in departed:
                        scheduler.deactivate(i)
                report = scheduler.mega_batch_boundary()
                self.record_device_controls(
                    report.batch_sizes_after, scheduler.learning_rates
                )
                trace.batch_size_history.append(report.batch_sizes_before)
                trace.perturbation_history.append(weights.perturbed)
                trace.merge_branch_history.append(weights.branch)
                trace.staleness_history.append(max(updates) - min(updates))

                # ---- membership epoch: admit joins, re-derive controls ---
                if membership is not None:
                    admitted = membership.poll(env.now, admit_joins=True)
                    joined = [
                        e.device_id for e in admitted
                        if e.kind == "join" and e.applied
                    ]
                    membership.take_sync()
                    if failed or departed or joined:
                        survivors = [
                            i for i in spawned
                            if i not in failed and i not in departed
                        ]
                        self.apply_membership_rescale(
                            scheduler,
                            survivors=survivors,
                            joined=joined,
                            n_before=len(spawned),
                        )
                        # Joining replicas warm-start from the global model
                        # just merged (the copy below covers rejoins too).
                        while len(replicas) < scheduler.n_gpus:
                            replicas.append(global_model.copy())
                            grads.append(self.mlp.zeros_state())
                        if scheduler.n_gpus > reduce_work.shape[0]:
                            reduce_work = np.empty(
                                (scheduler.n_gpus, global_model.n_params),
                                dtype=np.float32,
                            )
                    tel.gauge(GAUGE_ACTIVE_DEVICES, float(membership.n_active))

                # Replicas restart from the merged global model.
                for replica in replicas:
                    replica.copy_from(global_model)

                mean_loss = loss_sum / loss_count if loss_count else float("nan")
                loss_sum = 0.0
                loss_count = 0
                self.record_checkpoint(
                    trace, env,
                    epochs=scheduler.epochs_completed,
                    updates=total_updates,
                    samples=scheduler.samples_dispatched,
                    state=global_model,
                    loss=mean_loss,
                )
            if membership is not None:
                membership.ledger.assert_drained()
                trace.metadata["membership"] = membership.summary()
            return trace

        env.run_until_complete(env.process(driver(), name="adaptive-driver"))
        return trace
