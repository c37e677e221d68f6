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

from repro.core.config import AdaptiveSGDConfig
from repro.core.merging import compute_merge_weights, merge_models
from repro.core.scheduler import DynamicScheduler
from repro.data.dataset import XMLTask
from repro.elastic.membership import ClusterMembership
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import MultiGPUServer
from repro.harness.trainer_base import TrainerBase, TrainingRun
from repro.sparse.model_state import ModelState
from repro.sparse.optimizer import sgd_step
from repro.telemetry.events import (
    GAUGE_ACTIVE_DEVICES,
    GAUGE_STALENESS,
    SPAN_MERGE,
    SPAN_TRANSFER,
)

__all__ = ["AdaptiveSGDTrainer"]


class AdaptiveSGDTrainer(TrainerBase):
    """Adaptive elastic model averaging SGD for heterogeneous multi-GPUs."""

    algorithm = "Adaptive SGD"
    driver_name = "adaptive-driver"

    def __init__(
        self,
        task: XMLTask,
        server: MultiGPUServer,
        config: AdaptiveSGDConfig,
        *,
        governor: bool = False,
        membership=None,
        **kwargs,
    ) -> None:
        super().__init__(task, server, config, **kwargs)
        self.governor = bool(governor)
        if membership is not None:
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

    # -- the sim processes ------------------------------------------------------
    def manager(self, run: TrainingRun, gpu_id: int):
        """One GPU manager's mega-batch (Figure 2, steps 1-2)."""
        gpu = self.server.gpus[gpu_id]
        env, scheduler, membership = run.env, run.scheduler, self.membership
        replica = run.replicas[gpu_id]
        run.active += 1
        try:
            # Replica download at the start of the mega-batch.
            with self.telemetry.span(
                SPAN_TRANSFER, device=gpu_id, nbytes=run.model_bytes
            ):
                yield env.timeout(gpu.model_transfer_time(run.model_bytes))
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
                loss, grad = yield from self.device_step(
                    run, gpu_id, batch, replica, run.grad,
                    n_active=max(1, run.active),
                )
                sgd_step(replica, grad, scheduler.learning_rates[gpu_id])
                scheduler.record_completion(gpu_id)
                run.record_update(loss)
        finally:
            run.active -= 1

    def driver(self, run: TrainingRun):
        """Mega-batches until the budget expires: managers, then the barrier."""
        env, membership = run.env, self.membership
        n = self.server.n_gpus
        if membership is not None:
            membership.telemetry = self.telemetry
        scheduler = run.scheduler = DynamicScheduler(
            self.task.train,
            self.config,
            n,
            seed=self.data_seed,
            use_governor=self.governor,
            telemetry=self.telemetry,
        )
        run.global_model = self.initial_state()
        run.prev_global = run.global_model.copy()
        run.replicas = [run.global_model.copy() for _ in range(n)]
        # One gradient buffer: a step applies it before the next step fills it.
        run.grad = self.mlp.zeros_state()
        run.model_bytes = run.global_model.nbytes
        # Managers currently running: what a step's contention is priced on.
        run.active = 0
        run.trace.metadata["allreduce"] = self.allreduce.name

        # Checkpoint 0: the shared initial model and initial controls.
        self.checkpoint(
            run, run.global_model,
            controls=(scheduler.batch_sizes, scheduler.learning_rates),
        )
        while run.in_budget:
            spawned = [
                i for i in range(scheduler.n_gpus)
                if membership is None or membership.is_active(i)
            ]
            yield env.all_of([
                env.process(self.manager(run, i), name=f"gpu-manager-{i}")
                for i in spawned
            ])
            failed, departed = self.settle_membership(run, spawned)
            yield from self.merge(
                run, [i for i in spawned if i not in failed]
            )
            self.rescale(run, spawned, failed, departed)
            # Replicas restart from the merged global model.
            for replica in run.replicas:
                replica.copy_from(run.global_model)
            self.checkpoint(
                run, run.global_model,
                epochs=scheduler.epochs_completed,
                samples=scheduler.samples_dispatched,
            )
        if membership is not None:
            membership.ledger.assert_drained()
            run.trace.metadata["membership"] = membership.summary()

    # -- the merge barrier, in order --------------------------------------------
    def settle_membership(self, run: TrainingRun, spawned):
        """Membership settlement: who failed or left during the mega-batch.

        Exactly-once merge accounting: every replica that ran this
        mega-batch offered its update; a failed replica's offer is
        discarded, everyone else's merges (a graceful leaver still merges
        with correct normalization). Returns ``(failed, departed)``.
        """
        membership = self.membership
        if membership is None:
            return set(), set()
        membership.poll(run.env.now, admit_joins=False)
        failed, departed, _ = membership.take_sync()
        for i in spawned:
            token = membership.ledger.offer(i, run.scheduler.updates[i])
            membership.ledger.resolve(token, merged=i not in failed)
        return failed, departed

    def merge(self, run: TrainingRun, merge_ids):
        """Algorithm 2 over ``merge_ids`` (a generator: the all-reduce is timed)."""
        cfg, scheduler, tel = self.config, run.scheduler, self.telemetry
        replicas = [run.replicas[i] for i in merge_ids]
        updates = tuple(scheduler.updates[i] for i in merge_ids)
        staleness = max(updates) - min(updates)
        tel.gauge(GAUGE_STALENESS, staleness)
        with tel.span(SPAN_MERGE, branch=None) as merge_span:
            weights = compute_merge_weights(
                [scheduler.batch_sizes[i] for i in merge_ids],
                updates,
                [replica.l2_norm_per_param() for replica in replicas],
                pert_thr=cfg.pert_thr,
                delta=cfg.delta,
                enable_perturbation=cfg.enable_perturbation,
                weighting=cfg.merge_weighting,
                renormalize=cfg.renormalize_perturbation,
            )
            merge_span.args["branch"] = weights.branch
            reduced_vec = yield from self.collective(
                run, run.model_bytes,
                vectors=[replica.vector for replica in replicas],
                weights=weights.alphas,
            )
            merge_models(
                replicas, weights, run.global_model, run.prev_global,
                gamma=cfg.gamma,
                reduced=ModelState.from_vector(
                    run.global_model.spec, reduced_vec
                ),
            )
        run.trace.perturbation_history.append(weights.perturbed)
        run.trace.merge_branch_history.append(weights.branch)
        run.trace.staleness_history.append(staleness)

    def rescale(self, run: TrainingRun, spawned, failed, departed) -> None:
        """Algorithm 1 over the surviving slots, then the membership epoch:
        parked joins are admitted and every device's controls re-derived."""
        scheduler, membership = run.scheduler, self.membership
        for i in failed:
            scheduler.deactivate(i, discard=True)
        for i in departed:
            scheduler.deactivate(i)
        report = scheduler.mega_batch_boundary()
        self.record_device_controls(
            report.batch_sizes_after, scheduler.learning_rates
        )
        run.trace.batch_size_history.append(report.batch_sizes_before)
        if membership is None:
            return
        admitted = membership.poll(run.env.now, admit_joins=True)
        joined = [
            e.device_id for e in admitted if e.kind == "join" and e.applied
        ]
        membership.take_sync()
        if failed or departed or joined:
            self.apply_membership_rescale(
                scheduler,
                survivors=[
                    i for i in spawned
                    if i not in failed and i not in departed
                ],
                joined=joined,
                n_before=len(spawned),
            )
            # Joining replicas warm-start from the global model just merged
            # (the driver's copy after the barrier covers rejoins too).
            while len(run.replicas) < scheduler.n_gpus:
                run.replicas.append(run.global_model.copy())
        self.telemetry.gauge(GAUGE_ACTIVE_DEVICES, float(membership.n_active))
