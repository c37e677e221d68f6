"""The telemetry recorder every trainer routes through.

A :class:`Telemetry` object collects one uniform event stream — spans and
instant events stamped with the *simulated* clock, per-device counters and
gauges kept as ``{key: [(t, value), ...]}`` (the shape
:class:`~repro.telemetry.trace_data.RunData` reads them back in), and
aggregate host-side kernel timings from :mod:`repro.perf.profile` — across
one or more training runs. Each run (one ``TrainerBase.run`` invocation)
gets its own run index, which the Chrome exporter maps to a Perfetto
"process", so a whole experiment grid lands in a single inspectable trace.

Disabled telemetry must cost nothing: :data:`NULL` is a shared
:class:`NullTelemetry` whose ``span`` returns one preallocated no-op context
manager and whose counter/gauge methods return immediately. Trainers hold
``self.telemetry`` unconditionally and never branch on configuration.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.perf import profile as kernel_profile
from repro.perf.profile import KernelProfile
from repro.sim.environment import Environment
from repro.telemetry.events import (
    SPAN_SERVE_BATCH,
    SPAN_STEP,
    InstantEvent,
    Series,
    SpanEvent,
    device_key,
)

__all__ = ["Telemetry", "NullTelemetry", "NULL", "IdleAccountant"]


class IdleAccountant:
    """Per-device busy time and the gaps between consecutive busy intervals.

    The recorder reports one closed interval per device compute span
    (``step.compute`` / ``serve.batch``), in non-decreasing start order per
    device. Back-to-back intervals contribute zero idle; one starting before
    the previous ended clamps the gap at zero. Trace analysis reads the
    totals off the archive's ``idle`` records.
    """

    def __init__(self) -> None:
        #: key -> that lane's ``idle`` record, in first-observation order.
        self._lanes: Dict[object, Dict[str, object]] = {}

    def observe(self, key, start: float, end: float) -> None:
        """Account one busy interval ``[start, end]`` on lane ``key``."""
        start = float(start)
        end = float(end)
        if end < start:
            raise ValueError(
                f"busy interval ends before it starts: [{start}, {end}]"
            )
        lane = self._lanes.get(key)
        if lane is None:
            self._lanes[key] = {
                "device": key, "first_ts": start, "last_ts": end,
                "busy_s": end - start, "idle_s": 0.0, "intervals": 1,
            }
            return
        lane["idle_s"] += max(0.0, start - lane["last_ts"])  # gap since then
        lane["last_ts"] = max(lane["last_ts"], end)
        lane["busy_s"] += end - start
        lane["intervals"] += 1

    def as_records(self) -> List[Dict[str, object]]:
        """One JSON-friendly dict per lane, in first-observation order."""
        return [dict(lane) for lane in self._lanes.values()]


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
        tel._add_span(
            self.name, self._start, end, max(0.0, end - self._start),
            self.device, self.args,
        )
        return False


class Telemetry:
    """Structured tracing + per-device metrics for training runs.

    Pass one instance to any trainer (constructor ``telemetry=``) or to
    :func:`repro.harness.experiment.run_experiment`; export the result with
    :mod:`repro.telemetry.export`.
    """

    enabled: bool = True

    def __init__(self, *, label: str = "telemetry") -> None:
        self.label = label
        self.spans: List[SpanEvent] = []
        self.instants: List[InstantEvent] = []
        #: One metadata dict per attached run; index == the events' ``run``.
        self.runs: List[dict] = []
        #: Per run: counter/gauge key (device-prefixed) -> samples on that
        #: run's sim clock, keys in first-touch order.
        self.samples: List[Dict[str, Series]] = []
        #: Per run: busy/gap accounting of the device compute spans.
        self.idle: List[IdleAccountant] = []
        #: Aggregate host-side kernel timings across all runs.
        self.kernels = KernelProfile()
        self._clock: Optional[Environment] = None

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
        self.samples.append({})
        self.idle.append(IdleAccountant())
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
        self._add_span(name, ts, ts + dur, dur, device, args)

    def _add_span(self, name: str, ts: float, end: float, dur: float,
                  device: Optional[int], args: dict) -> None:
        self.spans.append(
            SpanEvent(name, ts, dur, self.run_index, device, args)
        )
        if device is not None and name in (SPAN_STEP, SPAN_SERVE_BATCH):
            # Device compute intervals feed the idle accountant. A live span
            # passes its true end: ``ts + dur`` differs in the last digit.
            self.idle[-1].observe(device, ts, end)

    def counter(self, name: str, inc: float = 1.0, *, ts: Optional[float] = None,
                device: Optional[int] = None) -> None:
        """Increment a cumulative counter (its total is the series' last
        value); sample it at ``ts`` (default now)."""
        series = self._series(name, device)
        total = float((series[-1][1] if series else 0.0) + inc)
        series.append((self._clock.now if ts is None else float(ts), total))

    def gauge(self, name: str, value: float, *,
              device: Optional[int] = None) -> None:
        """Sample a point-in-time value at the sim clock."""
        self._series(name, device).append((self._clock.now, float(value)))

    def _series(self, name: str, device: Optional[int]) -> Series:
        """The current run's samples of ``name`` on ``device``, created on
        first touch (the key order the archive keeps)."""
        self._now()  # raises unless a run is attached
        return self.samples[-1].setdefault(device_key(name, device), [])

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
