"""The SLIDE baseline: LSH-sampled, per-sample CPU training.

SLIDE [Chen et al.] argues "smart algorithms over hardware acceleration":
per-sample SGD where the softmax is computed only over the LSH-retrieved
active labels, parallelized Hogwild-style across CPU threads. The paper
includes it as the CPU comparator (Figure 5): it achieves the best
*statistical* efficiency (one model update per sample — orders of magnitude
more updates per epoch than batched GPU SGD) but the worst *hardware*
efficiency, so every GPU configuration beats it on time-to-accuracy.

Simulation split, as everywhere in this library: the numerics are real
(true SimHash retrieval, sampled softmax, sparse updates); only the clock is
virtual (the :class:`~repro.gpu.device.VirtualCPU` prices each sample's
active-set-dependent flop count across threads, plus periodic LSH-rebuild
time). Hogwild's lock-free semantics are modeled by applying the per-sample
updates sequentially — the empirically observed near-collision-free regime
SLIDE operates in.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.slide.lsh import SimHashLSH
from repro.baselines.slide.sampler import ActiveLabelSampler
from repro.core.config import AdaptiveSGDConfig
from repro.data.batching import ShuffledStream
from repro.data.dataset import XMLTask
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import MultiGPUServer
from repro.harness.trainer_base import TrainerBase, TrainingRun
from repro.perf.gather import RowGatherer, spmm_into
from repro.perf.slide_kernel import slide_chunk_step
from repro.sparse.ops import estimate_step_flops
from repro.telemetry.events import (
    COUNTER_UPDATES,
    SPAN_LSH_REBUILD,
    SPAN_STEP,
)
from repro.utils.rng import RngFactory

__all__ = ["SlideTrainer"]


class SlideTrainer(TrainerBase):
    """LSH-based sampled-softmax SGD on the (virtual) multicore CPU."""

    algorithm = "SLIDE"
    driver_name = "slide-driver"
    #: The CPU is SLIDE's single compute device (``device=0`` throughout).
    n_devices = 1

    #: Per-sample learning rates above this destabilize sampled-softmax
    #: training (the underestimated partition function over-boosts true
    #: labels when retrieval is weak); the LR clips the linear-scaling value
    #: here. SLIDE tunes its rate independently of the batched methods.
    LR_STABILITY_CEILING = 2e-2
    #: LSH tables: SLIDE's regime is many tables with wide buckets
    #: (retrieval quality is what keeps the sampled softmax stable).
    _N_TABLES = 32
    #: Samples between LSH rebuilds.
    _REBUILD_EVERY = 1024
    #: Samples per vectorized chunk step.
    _CHUNK_SAMPLES = 256

    def __init__(
        self,
        task: XMLTask,
        server: MultiGPUServer,
        config: AdaptiveSGDConfig,
        **kwargs,
    ) -> None:
        super().__init__(task, server, config, **kwargs)
        # Per-sample LR: linear scaling rule (batch size 1), clipped to the
        # sampled-softmax stability ceiling.
        self.lr = min(config.base_lr / config.b_max, self.LR_STABILITY_CEILING)
        L = task.n_labels
        self.n_bits = max(4, int(np.ceil(np.log2(max(L, 2)))) - 4)
        self.min_active = max(32, L // 24)
        self.max_active = max(128, L // 6)

    # -- simulated costs -------------------------------------------------------
    def _rebuild_time(self) -> float:
        """Seconds to rehash every output neuron across all threads."""
        cpu = self.server.cpu
        flops = (
            2.0
            * self.arch.hidden[-1]
            * self.n_bits
            * self._N_TABLES
            * self.arch.n_labels
        )
        params = cpu.cost_model.params
        effective = 1.0 + params.thread_efficiency * (cpu.n_threads - 1)
        return flops / (params.flops_per_s_per_core * effective)

    # -- training loop ---------------------------------------------------------
    def _start(self, run: TrainingRun):
        """Hang the run's model views, LSH tables and sample order on ``run``;
        returns the model state."""
        if len(self.arch.hidden) != 1:
            raise ConfigurationError(
                "SlideTrainer implements the paper's 3-layer model "
                f"(exactly one hidden layer); got hidden={self.arch.hidden}"
            )
        state = self.initial_state()
        run.params = (state["W1"], state["b1"], state["W2"], state["b2"])
        run.lsh = SimHashLSH(
            self.arch.hidden[0], n_tables=self._N_TABLES, n_bits=self.n_bits,
            seed=self.data_seed,
        )
        run.lsh.rebuild(state["W2"])
        run.sampler = ActiveLabelSampler(
            self.arch.n_labels, run.lsh,
            min_active=self.min_active, max_active=self.max_active,
            seed=self.data_seed,
        )
        run.order = ShuffledStream(
            self.task.train.n_samples, RngFactory(self.data_seed).get("slide-order")
        )
        run.gather_x = RowGatherer(self.task.train.X)
        run.since_rebuild = 0
        run.trace.metadata.update(
            n_tables=self._N_TABLES, n_bits=self.n_bits, lr=self.lr,
            min_active=self.min_active, max_active=self.max_active,
        )
        return state

    def train_chunk(self, run: TrainingRun, rows: np.ndarray):
        """One vectorized chunk of per-sample updates; returns (loss, nnz).

        The numerics live in :func:`repro.perf.slide_kernel.slide_chunk_step`:
        every sample's gradient is evaluated at the chunk-start weights
        (SLIDE's Hogwild stale-read regime) and applied in one batched
        sampled-softmax update.
        """
        W1, b1, W2, b2 = run.params
        Y = self.task.train.Y
        Xc = run.gather_x.gather(rows)
        H1 = np.empty((rows.size, self.arch.hidden[0]), dtype=np.float32)
        spmm_into(Xc, W1, H1)
        H1 += b1
        np.maximum(H1, 0.0, out=H1)
        label_sets = [
            Y.indices[Y.indptr[r]:Y.indptr[r + 1]] for r in rows
        ]
        actives = run.sampler.sample_batch(H1, label_sets)
        loss = slide_chunk_step(
            Xc, H1, self.task.train.labels_per_sample()[rows], actives,
            W1, b1, W2, b2, self.lr,
        )
        return loss, Xc.nnz

    def chunk_step(self, run: TrainingRun, chunk: int):
        """Train ``chunk`` samples, then sleep their CPU-priced time. Not
        :meth:`device_step`: the price depends on the chunk's own nnz, so
        the numerics run first, and the clock is the multicore CPU's."""
        cpu = self.server.cpu
        rows = run.order.take(chunk)
        with self.telemetry.span(SPAN_STEP, device=0, size=chunk, nnz=None) as sp:
            chunk_loss, nnz_total = self.train_chunk(run, rows)
            sp.args["nnz"] = int(nnz_total)
            # SLIDE applies one model update per sample.
            run.record_update(chunk_loss, chunk)
            run.since_rebuild += chunk
            # Price the chunk: mean per-sample flops across the chunk.
            flops = estimate_step_flops(
                1, max(1, nnz_total // max(chunk, 1)), self._layer_dims,
                active_labels=self.max_active,
            )
            per_sample = flops["sparse"] + flops["dense"] + flops["update"]
            dt = cpu.samples_time(per_sample, chunk)
            cpu.record_busy(dt)
            yield run.env.timeout(dt)
        self.telemetry.counter(COUNTER_UPDATES, chunk, device=0)

    def driver(self, run: TrainingRun):
        state = self._start(run)
        n_train = self.task.train.n_samples
        controls = ([self._CHUNK_SAMPLES], [self.lr])
        self.checkpoint(run, state, controls=controls)
        while run.in_budget:
            # Chunk boundaries align with both the checkpoint cadence and
            # the LSH rebuild cadence, so rebuilds happen at exactly the
            # same sample counts as the per-sample reference loop.
            yield from self.chunk_step(run, min(
                self._CHUNK_SAMPLES,
                run.next_checkpoint - run.updates,
                self._REBUILD_EVERY - run.since_rebuild,
            ))
            if run.since_rebuild >= self._REBUILD_EVERY:
                run.since_rebuild = 0
                with self.telemetry.span(
                    SPAN_LSH_REBUILD, device=0,
                    n_tables=self._N_TABLES, n_bits=self.n_bits,
                ):
                    run.lsh.rebuild(state["W2"])
                    yield run.env.timeout(self._rebuild_time())
            # One update per sample: ``run.updates`` is the samples done.
            self.checkpoint_if_due(
                run, state,
                epochs=run.updates / n_train,
                samples=run.updates,
                controls=controls,
            )
