"""Telemetry event records and the uniform trainer schema.

Every trainer — Adaptive SGD and all baselines — emits the *same* event
vocabulary through :class:`~repro.telemetry.core.Telemetry`, so any run can
be compared against any other in the same tooling. The schema mirrors where
the paper says time goes on heterogeneous GPUs:

Spans (simulated-clock duration events):

- ``run`` — one full training run (the root span);
- ``transfer.model`` — host→device replica download at a mega-batch start;
- ``step.compute`` — one batch (or SLIDE chunk) of compute + local update
  on a device;
- ``merge`` — the whole merge/synchronization stage of one boundary;
- ``merge.allreduce`` — the collective inside the merge stage;
- ``slide.rebuild`` — SLIDE's periodic LSH re-hash;
- ``serve.batch`` — one coalesced micro-batch executing on a device (the
  serving analogue of ``step.compute``; feeds the idle accountant);
- ``serve.swap`` — one hot-swap warming a newly published snapshot into a
  running engine (driver-level: loading + LSH re-index + ``W_out.T``
  re-cache happen off the dispatch path while devices keep serving).

Instant events:

- ``batch.dispatch`` — the scheduler handing a batch to a device;
- ``checkpoint`` — a §V-A accuracy probe (host-side; zero simulated time);
- ``swap.commit`` — a hot-swap went live (requests now admit against the
  new version);
- ``swap.rollback`` — a post-swap canary regressed; the engine restored
  the previous version and quarantined the new one;
- ``swap.failed`` — a published version failed validation (corrupt
  checksum, version skew) and was skipped; the prior version kept serving;
- ``membership.event`` — one device-lifecycle transition applied by the
  elastic layer (args carry ``kind`` — join/leave/fail/throttle/recover —
  the target ``device``, the throttle ``factor`` when applicable, the
  ``source``: ``timeline`` or ``autoscaler``, and ``applied``/``note`` when
  the never-empty guard suppressed the transition).

Counters / gauges (per-device series stamped with the simulated clock):

- ``updates`` — cumulative replica updates per device;
- ``batch_size`` / ``lr`` — the Algorithm-1 controls per device;
- ``staleness`` — per-boundary update-count spread;
- ``accuracy`` / ``loss`` — the checkpoint curve;
- ``swaps`` / ``rollbacks`` / ``swap_failures`` — hot-swap outcomes;
- ``active_devices`` — size of the elastic active set, sampled at every
  applied membership event and at each membership epoch.

Span/instant ``device`` is the GPU index (``None`` for driver-level events:
merges, checkpoints, the run span itself).

A serving run also records its request table once, at run end
(:class:`RequestTable`): a request is a row, not a span, and a shed is its
``shed`` code, not an event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SpanEvent",
    "InstantEvent",
    "span_totals",
    "RunData",
    "RequestTable",
    "REQUEST_COLUMNS",
    "SHED_REASONS",
    "Series",
    "device_key",
    "split_device_key",
    "SPAN_RUN",
    "SPAN_TRANSFER",
    "SPAN_STEP",
    "SPAN_MERGE",
    "SPAN_ALLREDUCE",
    "SPAN_LSH_REBUILD",
    "SPAN_SERVE_BATCH",
    "SPAN_SERVE_SWAP",
    "EVENT_DISPATCH",
    "EVENT_CHECKPOINT",
    "EVENT_SWAP_COMMIT",
    "EVENT_SWAP_ROLLBACK",
    "EVENT_SWAP_FAILED",
    "EVENT_MEMBERSHIP",
    "COUNTER_UPDATES",
    "COUNTER_SWAPS",
    "COUNTER_ROLLBACKS",
    "COUNTER_SWAP_FAILURES",
    "GAUGE_BATCH_SIZE",
    "GAUGE_LR",
    "GAUGE_STALENESS",
    "GAUGE_ACCURACY",
    "GAUGE_LOSS",
    "GAUGE_ACTIVE_DEVICES",
    "CORE_SPANS",
    "CORE_GAUGES",
]

# -- the uniform schema ------------------------------------------------------
SPAN_RUN = "run"
SPAN_TRANSFER = "transfer.model"
SPAN_STEP = "step.compute"
SPAN_MERGE = "merge"
SPAN_ALLREDUCE = "merge.allreduce"
SPAN_LSH_REBUILD = "slide.rebuild"
SPAN_SERVE_BATCH = "serve.batch"
SPAN_SERVE_SWAP = "serve.swap"

EVENT_DISPATCH = "batch.dispatch"
EVENT_CHECKPOINT = "checkpoint"
EVENT_SWAP_COMMIT = "swap.commit"
EVENT_SWAP_ROLLBACK = "swap.rollback"
EVENT_SWAP_FAILED = "swap.failed"
EVENT_MEMBERSHIP = "membership.event"

COUNTER_UPDATES = "updates"
COUNTER_SWAPS = "swaps"
COUNTER_ROLLBACKS = "rollbacks"
COUNTER_SWAP_FAILURES = "swap_failures"
GAUGE_BATCH_SIZE = "batch_size"
GAUGE_LR = "lr"
GAUGE_STALENESS = "staleness"
GAUGE_ACCURACY = "accuracy"
GAUGE_LOSS = "loss"
GAUGE_ACTIVE_DEVICES = "active_devices"

#: Every trainer must emit at least these spans / gauges (parity-tested).
CORE_SPANS = (SPAN_RUN, SPAN_STEP)
CORE_GAUGES = (GAUGE_ACCURACY, GAUGE_BATCH_SIZE)


#: Shed reason by request-table ``shed`` code (0: not shed; the rules are in
#: :class:`repro.serve.queue.TenantScheduler`).
SHED_REASONS = (None, "capacity", "utilization", "displaced")
#: A request table's columns, by ``req_id``: the float stamps (NaN: not
#: served) first, then the ints (-1: not served).
REQUEST_COLUMNS = ("arrival", "dispatch", "done", "device", "served_version",
                   "tenant", "priority", "shed")
FLOAT_COLUMNS = 3

#: One counter's or gauge's samples: ``[(time, value), ...]`` as recorded.
Series = List[Tuple[float, float]]


def device_key(name: str, device: Optional[int]) -> str:
    """The key a counter/gauge is stored under: ``gpu<i>/<name>`` on a
    device, the bare name on the driver."""
    return name if device is None else f"gpu{device}/{name}"


def split_device_key(key: str) -> Tuple[Optional[int], str]:
    """Invert :func:`device_key`: ``"gpu3/updates" -> (3, "updates")``.

    Names without the ``gpu<i>/`` prefix are driver-level: ``(None, key)``.
    """
    if key.startswith("gpu"):
        head, sep, tail = key.partition("/")
        if sep and head[3:].isdigit():
            return int(head[3:]), tail
    return None, key


@dataclass(slots=True)
class SpanEvent:
    """One completed duration event on the simulated clock."""

    name: str
    #: Simulated start time (seconds).
    ts: float
    #: Simulated duration (seconds, >= 0).
    dur: float
    #: Run index within the owning :class:`Telemetry` (Chrome ``pid``).
    run: int
    #: Device index, or ``None`` for driver-level spans.
    device: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)


@dataclass(slots=True)
class InstantEvent:
    """One zero-duration event on the simulated clock."""

    name: str
    ts: float
    run: int
    device: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)


@dataclass
class RequestTable:
    """A serving run's request table as recorded: a list per column of
    :data:`REQUEST_COLUMNS` (those of ``serve.queue.RunRequests``), by
    ``req_id``. ``tenant`` indexes the sorted ``tenant_names``, ``priority``
    is the class and ``shed`` a :data:`SHED_REASONS` code; a completed
    request's latency is ``done - arrival``."""

    tenant_names: List[str]
    arrival: List[float] = field(default_factory=list)
    dispatch: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    device: List[int] = field(default_factory=list)
    served_version: List[int] = field(default_factory=list)
    tenant: List[int] = field(default_factory=list)
    priority: List[int] = field(default_factory=list)
    shed: List[int] = field(default_factory=list)


@dataclass
class RunData:
    """One run's events: what the recorder and the archive loader build."""

    index: int
    meta: Dict[str, object] = field(default_factory=dict)
    spans: List[SpanEvent] = field(default_factory=list)
    instants: List[InstantEvent] = field(default_factory=list)
    #: Counter/gauge key (device-prefixed) -> samples, in recording order.
    samples: Dict[str, Series] = field(default_factory=dict)
    #: A serving run's request table (``None``: not a serving run).
    requests: Optional[RequestTable] = None

    # -- accessors -----------------------------------------------------------
    def devices(self) -> List[int]:
        """Sorted device ids seen in spans or device-prefixed series."""
        seen = {s.device for s in self.spans if s.device is not None}
        seen.update(
            i.device for i in self.instants if i.device is not None
        )
        for key in self.samples:
            device, _ = split_device_key(key)
            if device is not None:
                seen.add(device)
        return sorted(seen)

    def spans_named(
        self, name: str, *, device: object = "any"
    ) -> List[SpanEvent]:
        """Spans called ``name``; ``device`` filters (``"any"`` = no filter)."""
        if device == "any":
            return [s for s in self.spans if s.name == name]
        return [s for s in self.spans if s.name == name and s.device == device]

    def run_span(self) -> Optional[SpanEvent]:
        """The root ``run`` span, or ``None`` for a zero-span run."""
        for s in self.spans:
            if s.name == SPAN_RUN:
                return s
        return None

    def start(self) -> float:
        """The run's start time (root span start, else earliest event, else 0)."""
        root = self.run_span()
        if root is not None:
            return root.ts
        starts = [s.ts for s in self.spans] + [i.ts for i in self.instants]
        starts += [t for series in self.samples.values() for t, _ in series[:1]]
        return min(starts) if starts else 0.0

    def duration(self) -> float:
        """Simulated seconds the run covers (root span, else the event hull)."""
        root = self.run_span()
        if root is not None:
            return root.dur
        start = self.start()
        ends = [s.ts + s.dur for s in self.spans]
        ends += [i.ts for i in self.instants]
        ends += [t for series in self.samples.values() for t, _ in series[-1:]]
        return max(ends) - start if ends else 0.0

    def series(self, name: str, *, device: Optional[int] = None) -> Series:
        """Samples of ``name`` on ``device`` (driver when ``None``)."""
        return self.samples.get(device_key(name, device), [])

    def final(self, name: str, *, device: Optional[int] = None) -> Optional[float]:
        """The last recorded value of a series, or ``None`` if absent."""
        series = self.series(name, device=device)
        return series[-1][1] if series else None

    def update_counts(self) -> Dict[int, float]:
        """Device -> final cumulative update count (Algorithm 1's ``u_i``),
        for the devices that recorded one, in device order."""
        counts = {}
        for device in self.devices():
            final = self.final(COUNTER_UPDATES, device=device)
            if final is not None:
                counts[device] = final
        return counts

    def label(self) -> str:
        """Human-readable run identity (algorithm + device count)."""
        algorithm = str(self.meta.get("algorithm", f"run {self.index}"))
        n = self.meta.get("n_devices")
        return f"{algorithm} ({n} dev)" if n is not None else algorithm


def span_totals(
    spans: Iterable[SpanEvent], *, by_device: bool = False
) -> Dict[object, List[float]]:
    """``{name: [seconds, count]}`` over ``spans`` (``{(name, device): ...}``
    with ``by_device``): keys in first-emission order, durations added in
    span order. The one span aggregate behind ``repro compare``, the headline
    metrics, the Prometheus exposition and the summary table."""
    totals: Dict[object, List[float]] = {}
    for span in spans:
        key = (span.name, span.device) if by_device else span.name
        entry = totals.setdefault(key, [0.0, 0])
        entry[0] += span.dur
        entry[1] += 1
    return totals
