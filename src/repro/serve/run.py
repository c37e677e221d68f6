"""One serving run: the state its sim processes share, and dispatch.

A :class:`ServeRun` is everything one ``ServingEngine.serve`` call mutates.
The three kinds of sim process — one :meth:`ServeRun.worker` per GPU,
:func:`repro.serve.swap.swap_manager` and
:func:`repro.serve.autoscale.membership_manager` — take the run and talk
only through its attributes and the shared re-armed ``wakeup`` event.

**Admission.** Arrivals are a sorted array known up front, so no process
replays them. :meth:`ServeRun.admit_due` offers the arrivals due by
``env.now`` to :meth:`~repro.serve.queue.TenantScheduler.admit` in one call,
each *as of its arrival time* and pinned to the model version active then;
admission control may shed or displace (lowest-priority work first).
Every process calls it first thing after each resume, before it touches
anything admission depends on; only processes change that state, so each
request meets the state of its own instant. An arrival at a waking instant
is admitted before that wake acts (the tie rule; DESIGN.md §9).

**Dispatch.** Each *worker* asks the scheduler for the next
batch: strict priority across classes, round-robin across tenants within
a class, up to ``min(cap, class depth)`` requests where ``cap`` comes from
that *(device, class)* pair's :class:`~repro.serve.queue.AdaptiveBatchSizer`
— each priority class drives its own sizer against its own SLO
(``class_slo_ms``) — or one request at a time in ``sequential`` mode. The
worker prices the batch from its size and its
rows' cached nnz, charges the simulated clock with the cost model's batch
time for *this* device at *this* moment (speed profiles keep heterogeneity
live during serving), stamps completion on every request, and feeds busy
time back to the scheduler's utilization estimate (the graded
``admission_utilization`` shed gate).

**Scoring.** Orthogonal to the batching mode, ``config.scoring`` selects
the ranking path per batch: ``"exact"`` (dense top-k over all ``L``
labels), ``"lsh"`` (the batched multi-probe candidate pipeline), or
``"auto"`` — the crossover policy: the device's cost model prices both
paths (:meth:`~repro.gpu.cost.GpuCostModel.inference_time` vs
:meth:`~repro.gpu.cost.GpuCostModel.lsh_inference_time` at the predictor's
*observed* candidate fraction) and :func:`pick_scoring` takes the cheaper.

**When the numerics run.** A batch's simulated cost depends on its size,
nnz and the predictor's observed candidate fraction, never on a logit, and
nothing in the sim reads a label. A top-k depends on the query row, weights
and path alone, so each ``(version, path)`` keeps one table: ``(query
rows, k)`` int32, plus candidate counts for LSH. :meth:`ServeRun.table`
fills it the first time a batch asks, over every query row the run's
requests name, a ``Predictor.chunk`` of rows per ``topk`` / ``lsh_stats``
call; an LSH batch reads its rows' counts there to price the next one.
:meth:`ServeRun.label` copies a version's tables into the label rows of the
requests it served, once: when :meth:`~ServeRun.retire_version` frees the
version, and after ``env.run()`` for the versions still live (DESIGN.md
§9).

Telemetry mirrors training: a ``serve.batch`` span per dispatched batch
(device compute, feeds the idle accountant). Requests and sheds are rows
and codes of the request table, which the engine records once at run end.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.gpu.cost import StepWorkload
from repro.perf.gather import CSR, RowGatherer
from repro.serve.predictor import Predictor
from repro.serve.queue import AdaptiveBatchSizer, RunRequests, TenantScheduler
from repro.sim.environment import Environment
from repro.telemetry.events import GAUGE_BATCH_SIZE, SPAN_SERVE_BATCH

__all__ = ["ServeRun", "pick_scoring"]


def pick_scoring(
    exact_s: Optional[float], lsh_s: Optional[float]
) -> Tuple[str, float]:
    """The cheaper scoring path and its modeled service time.

    ``None`` prices a path the policy does not allow; a tie goes to the
    exact path.
    """
    if exact_s is None or (lsh_s is not None and lsh_s < exact_s):
        return "lsh", lsh_s
    return "exact", exact_s


class ServeRun:
    """Mutable state of one serving run, shared by its sim processes."""

    def __init__(
        self,
        engine,
        X_queries: CSR,
        requests: RunRequests,
        *,
        k: int,
        canary_labels: Optional[CSR] = None,
        membership=None,
    ) -> None:
        cfg = engine.config
        self.env = Environment()
        self.config = cfg
        self.server = engine.server
        self.telemetry = engine.telemetry
        self.X_queries = X_queries
        self.gatherer = RowGatherer(X_queries)
        #: nnz per query row, as Python ints: summed to price a batch.
        self.row_nnz: List[int] = self.gatherer.row_nnz.tolist()
        #: Every query row the run's requests name, ascending: a mask, not
        #: ``np.unique`` (which imports ``numpy.ma``).
        used = np.zeros(X_queries.shape[0], dtype=bool)
        used[requests.row] = True
        self.used_rows = np.flatnonzero(used)
        #: (version, path) -> ``(query rows, k)`` int32 top-k by query row
        #: and, for LSH, each row's candidate count (else None). Filled by
        #: :meth:`table`, read and freed by :meth:`label`.
        self.tables: Dict[Tuple[int, str], tuple] = {}
        #: Requests served on the LSH path; the rest took the exact one.
        self.lsh_served = np.zeros(requests.arrival.size, dtype=bool)
        self.requests = requests
        #: Top-k ids by ``req_id``; -1 rows: shed.
        self.labels = np.full((requests.arrival.size, k), -1, dtype=np.int32)
        #: Requests ``[0, n_offered)`` have been offered to admission.
        self.n_offered = 0
        self.k = k
        self.canary_labels = canary_labels
        self.membership = membership
        #: A store feeds the run: its result reports the hot-swap rows.
        self.hot_swap = engine.store is not None
        self.n_labels = engine.predictor.arch.n_labels
        self.scheduler = TenantScheduler(
            requests,
            n_priority_classes=cfg.priority_classes,
            max_depth=cfg.max_queue_depth,
            admission_utilization=cfg.admission_utilization,
            n_devices=self.server.n_gpus,
        )
        #: One sizer per (device, priority class): each class batches
        #: against its own SLO on each device's own service-time feedback.
        self.sizers: Dict[tuple, AdaptiveBatchSizer] = {}
        #: Fired-and-replaced whenever membership or the end of the run may
        #: unblock a worker parked on an inactive device.
        self.wakeup = self.env.event()
        #: Device ids with a worker process spawned (joins add to it).
        self.worker_ids: Set[int] = set()
        # -- hot-swap state: every version with live pins or guard
        #    protection stays resident; ``active_version`` is the one new
        #    arrivals are admitted under.
        self.base_version = engine.base_version
        self.active_version = engine.base_version
        self.predictors: Dict[int, Predictor] = {
            engine.base_version: engine.predictor
        }
        self.pins: Dict[int, int] = {engine.base_version: 0}
        #: Versions the swap manager is mid-protocol on (rollback targets).
        self.protected: Set[int] = set()
        self.quarantined: Set[int] = set()
        # -- accounting the result is built from (with the request table)
        #: Requests completed so far (the latency canary's clock).
        self.n_completed = 0
        self.batch_sizes: List[int] = []
        self.scoring_batches: Dict[str, int] = {}
        self.lsh_fractions: List[float] = []
        self.swap_records: List[dict] = []
        self.n_swaps = 0
        self.n_rollbacks = 0
        self.n_swap_failures = 0
        self.n_autoscale_admits = 0
        self.n_autoscale_retires = 0

    # -- helpers every process shares ----------------------------------------
    def wake_all(self) -> None:
        """Fire-and-replace the shared wakeup event (re-arm pattern)."""
        event, self.wakeup = self.wakeup, self.env.event()
        event.succeed()

    def retire_version(self, version: int) -> None:
        """Free a predictor nothing can reference any more."""
        if (
            version != self.active_version
            and version not in self.protected
            and self.pins.get(version, 0) == 0
            and version in self.predictors
        ):
            del self.predictors[version]
            self.label(version)

    @property
    def arrivals_done(self) -> bool:
        """True once every arrival was offered to admission."""
        return self.n_offered == self.requests.arrival.size

    def drained(self) -> bool:
        """True once every arrival was offered and the queue is empty."""
        return self.arrivals_done and self.scheduler.depth == 0

    def sizer(self, device: int, priority_class: int) -> AdaptiveBatchSizer:
        """The (device, class) pair's batch sizer, created on first use."""
        key = (device, priority_class)
        sizer = self.sizers.get(key)
        if sizer is None:
            sizer = self.sizers[key] = AdaptiveBatchSizer(
                target_latency_s=self.config.class_target_latency_s(
                    priority_class
                ),
            )
        return sizer

    def spawn_workers(self) -> None:
        """Start a worker for every server GPU that has none yet."""
        for gpu in self.server.gpus:
            if gpu.device_id not in self.worker_ids:
                self.worker_ids.add(gpu.device_id)
                self.env.process(self.worker(gpu), name=f"serve-{gpu.name}")

    # -- admission and dispatch ----------------------------------------------
    def admit_due(self) -> None:
        """Offer every arrival due by ``env.now`` to admission, in order,
        each as of its own arrival time (a shed is stamped then, not now)."""
        requests = self.requests
        start = self.n_offered
        stop = int(requests.arrival.searchsorted(self.env.now, side="right"))
        if stop == start:
            return
        self.n_offered = stop
        pins = self.pins
        version = self.active_version  # only sim processes move it
        requests.version[start:stop] = [version] * (stop - start)
        pins[version] = pins.get(version, 0) + stop - start
        # Python floats off one slice: no numpy scalar reaches the gate.
        arrivals = requests.arrival[start:stop].tolist()
        for shed in self.scheduler.admit(start, stop, arrivals):
            # Unpin the shed request: the arrival itself or a displaced one.
            pins[requests.version[shed]] -= 1
            self.retire_version(requests.version[shed])

    def worker(self, gpu):
        """Sim process: pull, score and complete batches on ``gpu``."""
        env, tel, scheduler = self.env, self.telemetry, self.scheduler
        membership = self.membership
        adaptive = self.config.mode == "adaptive"
        device = gpu.device_id
        while True:
            self.admit_due()
            # A retired/failed device parks between batches: the in-flight
            # batch (if any) already completed, queued work re-routes to
            # the survivors, and a later rejoin wakes it.
            if membership is not None and not membership.is_active(device):
                if self.drained():
                    return
                yield self.wakeup
                continue
            if scheduler.depth == 0:
                if self.arrivals_done:
                    return
                # Idle: wake on the next arrival ``t``. ``now + delay`` can
                # round an ulp past it; an ulp less cannot, and from an ulp
                # short the re-sleep is exact (Sterbenz): two sleeps at most.
                next_t = float(self.requests.arrival[self.n_offered])
                delay = next_t - env.now
                if env.now + delay > next_t:
                    delay = math.nextafter(delay, 0.0)
                yield env.timeout(delay)
                continue
            batch_class = scheduler.next_class()
            sizer = self.sizer(device, batch_class)
            batch = np.array(scheduler.pop_batch(sizer.cap if adaptive else 1))
            version = self.requests.version[batch[0]]
            t_dispatch = env.now
            chosen, service, nnz, fraction = self.score(
                gpu, self.predictors[version], batch
            )
            span_args = dict(
                size=len(batch), nnz=nnz, scoring=chosen,
                version=version, priority_class=batch_class,
            )
            if fraction is not None:
                span_args["candidate_fraction"] = fraction
            with tel.span(SPAN_SERVE_BATCH, device=device, **span_args):
                yield env.timeout(service)
            self.admit_due()
            gpu.record_busy(service)
            scheduler.observe_busy(service)
            self.complete(batch, device, t_dispatch, chosen)
            if adaptive:
                new_cap = sizer.observe(len(batch), env.now - t_dispatch)
                tel.gauge(GAUGE_BATCH_SIZE, new_cap, device=device)

    def score(self, gpu, pred: Predictor, batch: np.ndarray):
        """Price ``batch`` (request ids) on each path the policy allows, by
        this device's cost model at this instant, and let
        :func:`pick_scoring` choose. Returns ``(path, service_s, nnz,
        candidate_fraction)``."""
        rows = self.requests.row[batch]
        nnz = sum(map(self.row_nnz.__getitem__, rows.tolist()))
        work = StepWorkload(len(batch), nnz, pred.layer_dims)
        speed = gpu.speed_at(self.env.now)
        n_gpus = self.server.n_gpus
        exact_s = lsh_s = fraction = None
        if self.config.scoring != "lsh":
            exact_s = gpu.cost_model.inference_time(
                work, speed=speed, n_active_gpus=n_gpus
            )
        if self.config.scoring != "exact":
            frac = pred.observed_candidate_fraction()
            lsh_s = gpu.cost_model.lsh_inference_time(
                work, frac if frac is not None else 1.0,
                n_tables=pred.lsh_tables, n_bits=pred.lsh_bits,
                n_probes=pred.lsh_probes, speed=speed, n_active_gpus=n_gpus,
            )
        chosen, service = pick_scoring(exact_s, lsh_s)
        version = self.requests.version[batch[0]]
        counts = self.table(version, pred, chosen)[1]
        if counts is not None:  # its counts price the next batch
            fraction = pred.observe_fraction(counts[rows])
            self.lsh_fractions.append(fraction)
        return chosen, service, nnz, fraction

    def table(self, version: int, pred: Predictor, path: str) -> tuple:
        """``(version, path)``'s table, scored by ``pred`` the first time a
        batch asks: every used query row, a ``pred.chunk`` per call."""
        key = (version, path)
        entry = self.tables.get(key)
        if entry is None:
            n, used = self.X_queries.shape[0], self.used_rows
            table = np.zeros((n, self.k), dtype=np.int32)
            counts = np.zeros(n, dtype=np.int64) if path == "lsh" else None
            for start in range(0, used.size, pred.chunk):
                rows = used[start:start + pred.chunk]
                X = self.gatherer.gather(rows)
                if counts is None:
                    table[rows] = pred.topk(X, self.k)
                else:
                    table[rows], counts[rows] = pred.lsh_stats(X, self.k)
            entry = self.tables[key] = (table, counts)
        return entry

    def label(self, version: int) -> None:
        """Copy ``version``'s tables into the label rows of the requests it
        served, then free them."""
        requests, lsh = self.requests, self.lsh_served
        served = requests.served_version == version
        for path, took in (("exact", served & ~lsh), ("lsh", served & lsh)):
            entry = self.tables.pop((version, path), None)
            if entry is not None:
                ids = np.flatnonzero(took)
                self.labels[ids] = entry[0][requests.row[ids]]

    def complete(self, batch, device, t_dispatch, chosen) -> None:
        """Stamp a finished batch (request ids) in the request table and
        the run's accounts."""
        requests = self.requests
        size = len(batch)
        version = requests.version[batch[0]]
        self.scoring_batches[chosen] = self.scoring_batches.get(chosen, 0) + 1
        requests.dispatch[batch] = t_dispatch
        requests.done[batch] = self.env.now
        requests.device[batch] = device
        requests.served_version[batch] = version
        self.lsh_served[batch] = chosen == "lsh"
        self.n_completed += size
        self.pins[version] -= size
        self.retire_version(version)
        self.batch_sizes.append(size)
