"""The telemetry recorder every trainer routes through.

A :class:`Telemetry` object collects one uniform event stream — spans and
instant events stamped with the *simulated* clock, per-device counters and
gauges backed by :class:`~repro.sim.monitor.MonitorSet`, and aggregate
host-side kernel timings from :mod:`repro.perf.profile` — across one or
more training runs. Each run (one ``TrainerBase.run`` invocation) gets its
own run index, which the Chrome exporter maps to a Perfetto "process", so a
whole experiment grid lands in a single inspectable trace.

Disabled telemetry must cost nothing: :data:`NULL` is a shared
:class:`NullTelemetry` whose ``span`` returns one preallocated no-op context
manager and whose counter/gauge methods return immediately. Trainers hold
``self.telemetry`` unconditionally and never branch on configuration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.perf import profile as kernel_profile
from repro.perf.profile import KernelProfile
from repro.sim.environment import Environment
from repro.sim.monitor import MonitorSet
from repro.telemetry.events import (
    SPAN_SERVE_BATCH,
    SPAN_STEP,
    InstantEvent,
    SpanEvent,
)

__all__ = ["Telemetry", "NullTelemetry", "NULL"]


class _NullSpan:
    """Shared no-op context manager (the disabled ``span`` fast path)."""

    __slots__ = ()

    #: Shared write-and-forget dict so ``span.args[...] = ...`` annotation
    #: sites need no enabled-check. Bounded: keys are just overwritten.
    args: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span: records itself into the telemetry on ``__exit__``."""

    __slots__ = ("_tel", "name", "device", "args", "_start")

    def __init__(self, tel: "Telemetry", name: str,
                 device: Optional[int], args: dict) -> None:
        self._tel = tel
        self.name = name
        self.device = device
        self.args = args
        self._start: float = 0.0

    def __enter__(self) -> "_Span":
        self._start = self._tel._now()
        return self

    def __exit__(self, *exc) -> bool:
        tel = self._tel
        if tel._clock is None:
            # The run detached while this span was open (e.g. a worker
            # process abandoned at budget expiry and later closed by GC):
            # the span never completed, so drop it.
            return False
        end = tel._now()
        tel.spans.append(SpanEvent(
            name=self.name,
            ts=self._start,
            dur=max(0.0, end - self._start),
            run=tel.run_index,
            device=self.device,
            args=self.args,
        ))
        if self.device is not None and self.name in (SPAN_STEP, SPAN_SERVE_BATCH):
            # Device compute intervals feed the per-device idle accountant,
            # so analysis reads busy/gap totals instead of re-deriving them.
            tel.monitor_sets[-1].idle.observe(self.device, self._start, end)
        return False


def _device_key(name: str, device: Optional[int]) -> str:
    return name if device is None else f"gpu{device}/{name}"


class Telemetry:
    """Structured tracing + per-device metrics for training runs.

    Pass one instance to any trainer (constructor ``telemetry=`` or
    ``run(telemetry=...)``) or to :func:`repro.harness.experiment.run_experiment`;
    export the result with :mod:`repro.telemetry.export`.
    """

    enabled: bool = True

    def __init__(self, *, label: str = "telemetry") -> None:
        self.label = label
        self.spans: List[SpanEvent] = []
        self.instants: List[InstantEvent] = []
        #: One metadata dict per attached run; index == the events' ``run``.
        self.runs: List[dict] = []
        #: Per-run monitor sets (counters/gauges on that run's sim clock).
        self.monitor_sets: List[MonitorSet] = []
        #: Aggregate host-side kernel timings across all runs.
        self.kernels = KernelProfile()
        self._clock: Optional[Environment] = None
        self._counters: Dict[Tuple[int, str], float] = {}

    # -- run lifecycle -----------------------------------------------------
    @property
    def run_index(self) -> int:
        """Index of the currently attached run (-1 before any attach)."""
        return len(self.runs) - 1

    @property
    def attached(self) -> bool:
        """Whether a run is currently recording."""
        return self._clock is not None

    def attach(self, env: Environment, **run_meta: object) -> int:
        """Start recording a new run on ``env``'s clock; returns its index.

        Called by ``TrainerBase.run`` — user code only needs this when
        driving a simulation by hand.
        """
        if self._clock is not None:
            raise RuntimeError(
                f"telemetry {self.label!r} is already attached to a run; "
                "detach() it first (one run records at a time)"
            )
        self._clock = env
        self.runs.append(dict(run_meta))
        self.monitor_sets.append(MonitorSet(env))
        kernel_profile.activate(self.kernels)
        return self.run_index

    def detach(self) -> None:
        """Stop recording the current run (idempotent)."""
        self._clock = None
        if kernel_profile.active is self.kernels:
            kernel_profile.deactivate()

    def _now(self) -> float:
        if self._clock is None:
            raise RuntimeError(
                f"telemetry {self.label!r} is not attached to a run; "
                "record events between attach() and detach()"
            )
        return self._clock.now

    @property
    def monitors(self) -> MonitorSet:
        """The current run's monitor set."""
        if not self.monitor_sets or self._clock is None:
            raise RuntimeError(
                f"telemetry {self.label!r} has no attached run"
            )
        return self.monitor_sets[-1]

    # -- recording ---------------------------------------------------------
    def span(self, name: str, *, device: Optional[int] = None, **args: object):
        """A context manager recording ``name`` over its ``with`` block.

        Safe around ``yield env.timeout(...)`` inside simulation processes:
        the span brackets simulated time, and concurrent device processes
        each hold their own span object.
        """
        return _Span(self, name, device, args)

    def instant(self, name: str, *, device: Optional[int] = None,
                ts: Optional[float] = None, **args: object) -> None:
        """Record a zero-duration event at sim time ``ts`` (default: now;
        pass it when recording after the fact, e.g. a shed admitted late)."""
        now = self._now()  # raises unless a run is attached
        self.instants.append(InstantEvent(
            name=name, ts=now if ts is None else ts, run=self.run_index,
            device=device, args=args,
        ))

    def record_span(self, name: str, ts: float, dur: float, *,
                    device: Optional[int] = None, **args: object) -> None:
        """Record an already-completed span retroactively.

        The serving engine needs this for per-request latency spans: a
        request's span starts at *enqueue* time, but which micro-batch (and
        therefore which completion time) it lands in is only known after the
        batch finishes — no ``with`` block can bracket that. ``ts``/``dur``
        are on the simulated clock; ``SPAN_STEP``/``SPAN_SERVE_BATCH`` spans
        with a device still feed the idle accountant, same as live spans.
        """
        if dur < 0:
            raise ValueError(f"span duration must be >= 0, got {dur}")
        self._now()  # raises unless a run is attached
        self.spans.append(SpanEvent(
            name=name, ts=ts, dur=dur, run=self.run_index,
            device=device, args=args,
        ))
        if device is not None and name in (SPAN_STEP, SPAN_SERVE_BATCH):
            self.monitor_sets[-1].idle.observe(device, ts, ts + dur)

    def counter(self, name: str, inc: float = 1.0, *, ts: Optional[float] = None,
                device: Optional[int] = None) -> None:
        """Increment a cumulative counter; sample it at ``ts`` (default now)."""
        key = (self.run_index, _device_key(name, device))
        total = self._counters.get(key, 0.0) + inc
        self._counters[key] = total
        self.monitors[key[1]].record(total, ts)

    def gauge(self, name: str, value: float, *,
              device: Optional[int] = None) -> None:
        """Sample a point-in-time value at the sim clock."""
        self.monitors[_device_key(name, device)].record(value)

    # -- introspection -----------------------------------------------------
    def span_names(self) -> List[str]:
        """Distinct span names, in first-emission order."""
        seen: Dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.name)
        return list(seen)

    def monitor_names(self) -> List[str]:
        """Distinct monitor (counter/gauge) names across all runs."""
        seen: Dict[str, None] = {}
        for ms in self.monitor_sets:
            for name in ms.names():
                seen.setdefault(name)
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Telemetry {self.label!r}: {len(self.runs)} runs, "
            f"{len(self.spans)} spans, {len(self.instants)} instants>"
        )


class NullTelemetry(Telemetry):
    """The disabled sink: every record call is a no-op.

    ``NULL`` (the shared instance) is what trainers hold when no telemetry
    was configured; its ``span`` hands back one preallocated context
    manager, so the hot path never allocates on the disabled path.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(label="null")

    def attach(self, env: Environment, **run_meta: object) -> int:
        return -1

    def detach(self) -> None:
        pass

    def span(self, name: str, *, device: Optional[int] = None, **args: object):
        return _NULL_SPAN

    def instant(self, name: str, *, device: Optional[int] = None,
                ts: Optional[float] = None, **args: object) -> None:
        pass

    def record_span(self, name: str, ts: float, dur: float, *,
                    device: Optional[int] = None, **args: object) -> None:
        pass

    def counter(self, name: str, inc: float = 1.0, *, ts: Optional[float] = None,
                device: Optional[int] = None) -> None:
        pass

    def gauge(self, name: str, value: float, *,
              device: Optional[int] = None) -> None:
        pass


#: Shared disabled instance (do not record into this).
NULL = NullTelemetry()
