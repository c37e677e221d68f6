"""The telemetry recorder every trainer routes through.

A :class:`Telemetry` object records each run it is attached to (one
``TrainerBase.run`` each) into its own
:class:`~repro.telemetry.events.RunData` in ``runs``, the type an archive
loads back into: spans and instants on the *simulated* clock, per-device
counters and gauges, run metadata. It also keeps the host-side kernel
timings of :mod:`repro.perf.profile`. Values are recorded as the JSONL
archive gives them back (args and metadata through
:func:`~repro.utils.serialization.jsonable`, times and values as floats,
NaN if not finite), so a live recorder is analysed as it stands, byte for
byte like its archive.

Disabled telemetry must cost nothing: :data:`NULL` is a shared
:class:`NullTelemetry` whose ``span`` returns one preallocated no-op context
manager and whose counter/gauge methods return immediately. Trainers hold
``self.telemetry`` unconditionally and never branch on configuration.
"""

from __future__ import annotations

from math import isfinite, nan
from typing import List, Optional

from repro.exceptions import ConfigurationError
from repro.perf import profile as kernel_profile
from repro.perf.profile import KernelProfile
from repro.sim.environment import Environment
from repro.telemetry.events import (REQUEST_COLUMNS, InstantEvent,
                                    RequestTable, RunData, Series, SpanEvent,
                                    device_key)
from repro.utils.serialization import jsonable

__all__ = ["Telemetry", "NullTelemetry", "NULL"]


def _real(x: float) -> float:
    """``x`` as the archive gives it back: a float, NaN if not finite."""
    x = float(x)
    return x if isfinite(x) else nan


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
            self.name, self._start, max(0.0, end - self._start),
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
        #: One per attached run, recorded into while it is attached; index
        #: == the events' ``run``. Sample keys are in first-touch order.
        self.runs: List[RunData] = []
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
        reserved = sorted(run_meta.keys() & {"type", "run"})
        if reserved:  # the archive's run record's own fields
            raise ConfigurationError(f"run metadata keys {reserved} are reserved")
        if self._clock is not None:
            raise RuntimeError(
                f"telemetry {self.label!r} is already attached to a run; "
                "detach() it first (one run records at a time)"
            )
        self._clock = env
        self.runs.append(RunData(len(self.runs), jsonable(run_meta)))
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
        run = self.runs[-1]
        run.instants.append(InstantEvent(name, _real(now if ts is None else ts),
                                         run.index, device, jsonable(args)))

    def record_span(self, name: str, ts: float, dur: float, *,
                    device: Optional[int] = None, **args: object) -> None:
        """Record an already-completed span retroactively, for a span no
        ``with`` block can bracket. ``ts``/``dur`` are on the simulated
        clock."""
        if dur < 0:
            raise ValueError(f"span duration must be >= 0, got {dur}")
        self._now()  # raises unless a run is attached
        self._add_span(name, ts, dur, device, args)

    def record_requests(self, requests) -> None:
        """Record a finished serving run's request table
        (``serve.queue.RunRequests``) once, as the lists the archive gives
        back: :class:`~repro.telemetry.events.RequestTable`."""
        self._now()  # raises unless a run is attached
        columns = [getattr(requests, name) for name in REQUEST_COLUMNS]
        self.runs[-1].requests = RequestTable(list(requests.tenant_names), *(
            c.tolist() if hasattr(c, "tolist") else list(c) for c in columns))

    def _add_span(self, name: str, ts: float, dur: float,
                  device: Optional[int], args: dict) -> None:
        run = self.runs[-1]
        run.spans.append(SpanEvent(name, _real(ts), _real(dur), run.index,
                                   device, jsonable(args)))

    def counter(self, name: str, inc: float = 1.0, *, ts: Optional[float] = None,
                device: Optional[int] = None) -> None:
        """Increment a cumulative counter (its total is the series' last
        value); sample it at ``ts`` (default now)."""
        series = self._series(name, device)
        total = (series[-1][1] if series else 0.0) + inc
        series.append((_real(self._clock.now if ts is None else ts), _real(total)))

    def gauge(self, name: str, value: float, *,
              device: Optional[int] = None) -> None:
        """Sample a point-in-time value at the sim clock."""
        self._series(name, device).append((_real(self._clock.now), _real(value)))

    def _series(self, name: str, device: Optional[int]) -> Series:
        """The current run's samples of ``name`` on ``device``, created on
        first touch (the key order the archive keeps)."""
        self._now()  # raises unless a run is attached
        return self.runs[-1].samples.setdefault(device_key(name, device), [])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Telemetry {self.label!r}: {len(self.runs)} runs>"


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

    def record_requests(self, requests) -> None:
        pass

    def counter(self, name: str, inc: float = 1.0, *, ts: Optional[float] = None,
                device: Optional[int] = None) -> None:
        pass

    def gauge(self, name: str, value: float, *,
              device: Optional[int] = None) -> None:
        pass


#: Shared disabled instance (do not record into this).
NULL = NullTelemetry()
