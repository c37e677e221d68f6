"""Shared machinery for every trainer (Adaptive SGD and all baselines).

The paper's methodology (§V-A) imposes the same protocol on every algorithm:

- all algorithms start from the **same initial model** (same seed);
- every algorithm runs for the **same amount of simulated time**;
- **top-1 accuracy is measured after every mega-batch** on the test data;
- data-loading and evaluation time is **excluded** from the clock.

:class:`TrainerBase` implements that protocol once: it owns the model
architecture, the shared initializer, the (optionally subsampled) test-set
evaluator, trace bookkeeping, and the telemetry stream, plus the four
mechanisms the algorithms share so "step costs use the same kernels" (§V-B):
the priced GPU step (:meth:`~TrainerBase.device_step`), the timed collective
(:meth:`~TrainerBase.collective`), the checkpoint cadence
(:meth:`~TrainerBase.checkpoint`) and the bootstrap (:meth:`~TrainerBase.run`).
A subclass implements :meth:`~TrainerBase.driver`, a generator taking the
:class:`TrainingRun`, plus whatever worker processes it starts; everything
one run mutates lives on that run object, never on the trainer.

Telemetry: every trainer holds ``self.telemetry`` — a
:class:`repro.telemetry.Telemetry` recorder, or the shared zero-cost
:data:`repro.telemetry.NULL` sink when none was configured — and emits the
uniform schema of :mod:`repro.telemetry.events` through it. ``run`` attaches
the recorder to the fresh simulation clock for the duration of the run.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from repro.comm.ring import RingAllReduce
from repro.data.dataset import XMLTask
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import MultiGPUServer
from repro.gpu.cost import StepWorkload
from repro.harness.traces import TracePoint, TrainingTrace
from repro.sim.environment import Environment
from repro.sparse.mlp import MLPArchitecture, SparseMLP
from repro.sparse.model_state import ModelState
from repro.telemetry.core import NULL, Telemetry
from repro.telemetry.events import (
    COUNTER_UPDATES,
    EVENT_CHECKPOINT,
    GAUGE_ACCURACY,
    GAUGE_BATCH_SIZE,
    GAUGE_LOSS,
    GAUGE_LR,
    SPAN_ALLREDUCE,
    SPAN_RUN,
    SPAN_STEP,
)
from repro.utils.rng import RngFactory

__all__ = ["TrainerBase", "TrainingRun"]


class TrainingRun:
    """Everything one ``TrainerBase.run`` call mutates.

    A trainer's sim processes are methods taking the run, so two ``run()``
    calls on one trainer share nothing. The fields here are the ones every
    algorithm has; a driver hangs its own per-run state (cursor, replicas,
    scheduler, ...) on the same object before it starts its workers.
    """

    def __init__(self, env: Environment, budget_s: float,
                 trace: TrainingTrace, next_checkpoint: int) -> None:
        self.env = env
        self.budget_s = budget_s
        self.trace = trace
        #: Model updates applied so far (a checkpoint's ``updates``).
        self.updates = 0
        #: Training loss accumulated since the last checkpoint.
        self.loss_sum = 0.0
        self.loss_count = 0
        #: Sample count at which :meth:`TrainerBase.checkpoint_if_due` fires.
        self.next_checkpoint = next_checkpoint

    @property
    def in_budget(self) -> bool:
        """Whether simulated time is left (the drivers' loop condition)."""
        return self.env.now < self.budget_s

    def record_update(self, loss: float, count: int = 1) -> None:
        """Account ``count`` model updates whose summed loss is ``loss``."""
        self.updates += count
        self.loss_sum += loss
        self.loss_count += count

    def take_mean_loss(self) -> float:
        """Mean loss since the last call (NaN when no update ran); resets."""
        mean = self.loss_sum / self.loss_count if self.loss_count else float("nan")
        self.loss_sum = 0.0
        self.loss_count = 0
        return mean


class TrainerBase(ABC):
    """Common protocol for all training algorithms in the evaluation."""

    #: Human-readable algorithm name (used as the curve label).
    algorithm: str = "trainer"
    #: Name of the sim process :meth:`run` starts :meth:`driver` as.
    driver_name: str = "driver"

    def __init__(
        self,
        task: XMLTask,
        server: MultiGPUServer,
        config=None,
        *,
        hidden: Tuple[int, ...] = (128,),
        init_seed: int = 0,
        data_seed: int = 0,
        eval_samples: Optional[int] = 1024,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.task = task
        self.server = server
        #: The shared hyperparameter bundle (an ``AdaptiveSGDConfig``).
        #: Owned here so every trainer exposes one construction surface.
        self.config = config
        self.arch = MLPArchitecture(
            n_features=task.n_features, n_labels=task.n_labels, hidden=hidden
        )
        self.mlp = SparseMLP(self.arch)
        self._layer_dims = tuple(self.arch.layer_dims)
        self.init_seed = init_seed
        self.data_seed = data_seed
        self.telemetry: Telemetry = telemetry if telemetry is not None else NULL
        #: What :meth:`collective` prices by default: HeteroGPU's production
        #: merge, a multi-stream ring with one stream per GPU (the
        #: empirically optimal partition count, §IV).
        self.allreduce = RingAllReduce(n_streams=server.n_gpus)

        # Fixed evaluation subset: deterministic, identical across algorithms
        # (they share the task + seed), sized to keep host-side eval cheap.
        n_test = task.test.n_samples
        if eval_samples is None or eval_samples >= n_test:
            self._eval_split = task.test
        else:
            if eval_samples < 1:
                raise ConfigurationError(
                    f"eval_samples must be >= 1, got {eval_samples}"
                )
            rng = RngFactory(data_seed).get("eval-subset")
            idx = rng.choice(n_test, size=eval_samples, replace=False)
            self._eval_split = task.test.take(np.sort(idx), name="eval-subset")
        # The accuracy probe runs after every mega-batch; cache the boolean
        # label matrix once instead of re-casting Y per evaluation.
        self._eval_Y_bool = self._eval_split.Y.astype(bool)
        #: The model most recently passed to :meth:`record_checkpoint` —
        #: every algorithm checkpoints its live global model, so after
        #: ``run()`` this is the trained model :meth:`save_snapshot` ships.
        self.final_state: Optional[ModelState] = None
        #: Armed by :meth:`publish_snapshot`(every_s=...): periodic
        #: publication state checked at every checkpoint.
        self._publisher: Optional[dict] = None
        #: Sim time of the most recent checkpoint (stamps one-shot publishes).
        self._last_checkpoint_s: float = 0.0

    # -- shared protocol -----------------------------------------------------
    @property
    def n_devices(self) -> int:
        """Devices the trace reports (single-device trainers override)."""
        return self.server.n_gpus

    def initial_state(self) -> ModelState:
        """The shared initial model (same for every algorithm at a seed)."""
        return self.mlp.init_state(seed=self.init_seed)

    def evaluate(self, state: ModelState) -> float:
        """Top-1 test accuracy of ``state`` (host-side; zero simulated time).

        Streamed: the model ranks ``b_max`` rows at a time, so no
        ``(n_eval, n_labels)`` array exists; an empty split scores 0.0.
        """
        top1 = self.mlp.evaluate(
            self._eval_split.X, state, chunk=self.config.b_max
        )
        hits = self._eval_Y_bool[np.arange(top1.size), top1].sum()
        return float(hits / top1.size) if top1.size else 0.0

    def new_trace(self, n_devices: int) -> TrainingTrace:
        """A trace pre-filled with run identity metadata."""
        return TrainingTrace(
            algorithm=self.algorithm,
            dataset=self.task.name,
            n_devices=n_devices,
            metadata={
                "init_seed": self.init_seed,
                "data_seed": self.data_seed,
                "hidden": list(self.arch.hidden),
                "n_params": self.arch.n_params,
            },
        )

    def record_checkpoint(
        self,
        trace: TrainingTrace,
        env: Environment,
        *,
        epochs: float,
        updates: int,
        samples: int,
        state: ModelState,
        loss: float,
    ) -> TracePoint:
        """Evaluate ``state`` and append a checkpoint at the current sim time."""
        self.final_state = state
        self._last_checkpoint_s = env.now
        pub = self._publisher
        if pub is not None and env.now >= pub["next_s"]:
            # Checkpoint-aligned publishing: the live global model versions
            # into the store at the current sim time, so a serving run can
            # replay this training session's publish schedule.
            pub["store"].publish(
                self._as_snapshot(**pub["meta"]), published_s=env.now
            )
            pub["next_s"] = env.now + pub["every_s"]
        tel = self.telemetry
        host_t0 = perf_counter() if tel.enabled else 0.0
        point = TracePoint(
            time_s=env.now,
            epochs=epochs,
            updates=updates,
            samples=samples,
            accuracy=self.evaluate(state),
            loss=loss,
        )
        trace.record_point(point)
        if tel.enabled:
            # Evaluation is host-side (§V-A excludes it from the clock), so
            # it appears as an instant event carrying its real wall cost.
            tel.instant(
                EVENT_CHECKPOINT,
                accuracy=point.accuracy, loss=point.loss,
                updates=updates, samples=samples, epochs=epochs,
                host_eval_us=(perf_counter() - host_t0) * 1e6,
            )
            tel.gauge(GAUGE_ACCURACY, point.accuracy)
            tel.gauge(GAUGE_LOSS, point.loss)
        return point

    def record_device_controls(self, batch_sizes, learning_rates=None) -> None:
        """Gauge every device's current batch size (and optionally LR).

        All trainers emit ``batch_size`` — static algorithms once per
        boundary at their fixed size, Adaptive SGD at each Algorithm-1
        rescale — so the Figure-6a telemetry is uniformly available.
        """
        tel = self.telemetry
        if not tel.enabled:
            return
        for device, size in enumerate(batch_sizes):
            tel.gauge(GAUGE_BATCH_SIZE, size, device=device)
        if learning_rates is not None:
            for device, lr in enumerate(learning_rates):
                tel.gauge(GAUGE_LR, lr, device=device)

    def apply_membership_rescale(
        self,
        scheduler,
        *,
        survivors,
        joined,
        n_before: int,
    ):
        """Re-derive per-device controls at a membership epoch.

        Runs the Dynamic-Mini-batch rescale
        (:func:`repro.core.scaling.rescale_for_membership`) over the
        surviving slots, writes the new batch sizes / learning rates back
        into the scheduler, activates each joining slot at the ramped
        entry controls, and gauges the updated controls — so every trainer
        driving an elastic cluster re-derives its controls the same way.
        Returns the :class:`~repro.core.scaling.MembershipRescale`.
        """
        from repro.core.scaling import rescale_for_membership

        if not survivors:
            raise ConfigurationError(
                "membership rescale with no surviving devices"
            )
        rescale = rescale_for_membership(
            [scheduler.batch_sizes[i] for i in survivors],
            [scheduler.learning_rates[i] for i in survivors],
            n_before=n_before,
            n_joining=len(joined),
            b_min=scheduler.config.b_min,
            b_max=scheduler.config.b_max,
        )
        for slot, i in enumerate(survivors):
            scheduler.set_controls(
                i,
                batch_size=rescale.batch_sizes[slot],
                learning_rate=rescale.learning_rates[slot],
            )
        for device_id in joined:
            scheduler.activate(
                device_id,
                batch_size=rescale.join_batch_size,
                learning_rate=rescale.join_learning_rate,
            )
        self.record_device_controls(
            scheduler.batch_sizes, scheduler.learning_rates
        )
        return rescale

    def _as_snapshot(self, **meta):
        """The last-checkpointed model as a ModelSnapshot with provenance."""
        from repro.serve.snapshot import ModelSnapshot

        if self.final_state is None:
            raise ConfigurationError(
                "no checkpointed model yet: run the trainer first (every "
                "run records at least the initial checkpoint)"
            )
        merged_meta = {
            "algorithm": self.algorithm,
            "dataset": self.task.name,
            "n_labels": self.task.n_labels,
            "n_features": self.task.n_features,
            "init_seed": self.init_seed,
            "data_seed": self.data_seed,
            **meta,
        }
        return ModelSnapshot(
            arch=self.arch, state=self.final_state, meta=merged_meta
        )

    def save_snapshot(self, stem, **meta):
        """Persist the trained model as a serving snapshot at ``stem``.

        Writes ``<stem>.snapshot.json`` + ``<stem>.snapshot.npz`` (see
        :mod:`repro.serve.snapshot`) from the model recorded at the last
        checkpoint. Extra ``meta`` keywords land in the header's ``meta``
        section alongside the trainer's provenance fields. Returns the
        header path; raises if no run has checkpointed a model yet.
        """
        return self._as_snapshot(**meta).save(stem)

    def publish_snapshot(self, store, *, every_s=None, **meta):
        """Publish into a :class:`~repro.serve.store.SnapshotStore`.

        Two modes:

        - ``every_s=None`` (immediate): versions the last-checkpointed
          model into ``store`` right now and returns the new version id —
          the one-shot deploy, requires a completed run.
        - ``every_s=<sim seconds>`` (armed, call *before* ``run()``):
          checkpoint-aligned continuous publishing. At the first checkpoint
          and then whenever ``every_s`` more simulated seconds have
          elapsed, the live global model is versioned into the store
          stamped with the current sim time — the publish schedule a
          concurrently-serving engine replays for hot-swaps. Returns
          ``None``; disarm by passing ``store=None``.

        Extra ``meta`` keywords flow into every published header.
        """
        if every_s is None:
            snapshot = self._as_snapshot(**meta)
            return store.publish(snapshot, published_s=self._last_checkpoint_s)
        if store is None:
            self._publisher = None
            return None
        if not (every_s > 0):
            raise ConfigurationError(
                f"every_s must be > 0 (or None for immediate publish), "
                f"got {every_s}"
            )
        self._publisher = {
            "store": store,
            "every_s": float(every_s),
            "meta": dict(meta),
            "next_s": 0.0,
        }
        return None

    # -- the mechanisms every algorithm shares ---------------------------------
    def device_step(self, run: TrainingRun, gpu_id: int, batch,
                    state: ModelState, grad_out: ModelState, *,
                    n_active: int, overhead: float = 1.0):
        """One GPU step (a generator: ``loss, grad = yield from ...``).

        Prices ``batch`` on device ``gpu_id`` with ``n_active`` GPUs
        contending (times the framework's ``overhead`` factor), sleeps that
        long inside a ``step.compute`` span, then computes the real loss and
        gradient of ``state`` into ``grad_out``. Applying the gradient, and
        accounting the update on the run, is the caller's algorithm.
        """
        gpu = self.server.gpus[gpu_id]
        tel = self.telemetry
        work = StepWorkload(batch.size, batch.nnz, self._layer_dims)
        dt = gpu.step_time(work, run.env.now, n_active_gpus=n_active) * overhead
        with tel.span(SPAN_STEP, device=gpu_id, size=batch.size, nnz=batch.nnz):
            yield run.env.timeout(dt)
            gpu.record_busy(dt)
            out = self.mlp.loss_and_grad(batch, state, grad_out=grad_out)
        tel.counter(COUNTER_UPDATES, 1, device=gpu_id)
        return out

    def collective(self, run: TrainingRun, nbytes: int, *, seconds=None,
                   algorithm=None, vectors=None, weights=None):
        """The timed collective (a generator): one ``merge.allreduce`` span.

        By default ``self.allreduce`` prices ``nbytes`` on the server's
        topology and the span carries its cost breakdown; a trainer whose
        synchronization is not that schedule passes its own ``seconds`` and
        ``algorithm`` name. With ``vectors`` the numeric
        ``sum_i weights[i] * vectors[i]`` runs inside the span and is
        returned.
        """
        if seconds is None:
            timing = self.allreduce.time_seconds(nbytes, self.server.topology)
            seconds, args = timing.total_s, vars(timing)
            algorithm = self.allreduce.name
        else:
            args = dict(total_s=seconds)
        with self.telemetry.span(
            SPAN_ALLREDUCE, algorithm=algorithm, nbytes=nbytes, **args
        ):
            if seconds > 0:
                yield run.env.timeout(seconds)
            if vectors is not None:
                return self.allreduce.reduce(vectors, weights)

    def checkpoint(self, run: TrainingRun, state: ModelState, *,
                   epochs: float = 0.0, samples: int = 0,
                   controls=None) -> None:
        """Gauge ``controls`` (a ``(batch_sizes, learning_rates)`` pair, when
        given), then checkpoint ``state`` with the mean loss since the last
        one. The defaults are checkpoint 0: the shared initial model."""
        if controls is not None:
            self.record_device_controls(*controls)
        self.record_checkpoint(
            run.trace, run.env, epochs=epochs, updates=run.updates,
            samples=samples, state=state, loss=run.take_mean_loss(),
        )

    def checkpoint_if_due(self, run: TrainingRun, state: ModelState, *,
                          epochs: float, samples: int, controls) -> None:
        """:meth:`checkpoint` once per ``mega_batch_size`` samples (§V-A)."""
        if samples >= run.next_checkpoint:
            run.next_checkpoint += self.config.mega_batch_size
            self.checkpoint(
                run, state, epochs=epochs, samples=samples, controls=controls
            )

    # -- entry point ---------------------------------------------------------
    def run(self, *, time_budget_s: float) -> TrainingTrace:
        """Train for ``time_budget_s`` simulated seconds; return the trace."""
        if not 0 < time_budget_s < math.inf:
            raise ConfigurationError(
                f"time budget must be finite and > 0, got {time_budget_s}"
            )
        env = Environment()
        trace = self.new_trace(self.n_devices)
        trace.metadata["config"] = self.config
        run = TrainingRun(env, time_budget_s, trace, self.config.mega_batch_size)
        tel = self.telemetry
        tel.attach(
            env,
            algorithm=self.algorithm,
            dataset=self.task.name,
            n_devices=self.server.n_gpus,
            time_budget_s=time_budget_s,
            init_seed=self.init_seed,
            data_seed=self.data_seed,
        )
        try:
            with tel.span(SPAN_RUN, time_budget_s=time_budget_s):
                env.run_until_complete(
                    env.process(self.driver(run), name=self.driver_name)
                )
            return trace
        finally:
            # Detach first: a worker abandoned mid-step at budget expiry is
            # closed by `env.close()`, and its open span must see the
            # detached clock and drop itself, not stamp a later run's.
            tel.detach()
            env.close()

    @abstractmethod
    def driver(self, run: TrainingRun):
        """The algorithm (subclass hook): a generator run as one sim process
        until ``run.in_budget`` is false. It records checkpoint 0, starts
        its worker processes and checkpoints through :meth:`checkpoint`."""
