"""Device-lifecycle event stream: the ``MembershipTimeline``.

The elastic layer models cluster membership as a *deterministic, sim-clock
event stream*. A timeline is an immutable, time-sorted sequence of
:class:`MembershipEvent` records — ``join`` / ``leave`` / ``fail`` /
``throttle`` / ``recover`` — built either by hand or from a seeded churn
preset (:func:`make_churn_timeline`, presets declared in
:mod:`repro.gpu.profiles`).

Consumers never iterate the timeline directly; they pull events through a
:class:`TimelineCursor`, which delivers each event **exactly once, in
timestamp order**, as the simulation clock advances past it. That contract
(pinned by the derandomized property tests) is what lets the trainer, the
serving engine, and the telemetry layer all consume one schedule without
double-applying or reordering lifecycle transitions.

Event semantics (enforced downstream by
:class:`repro.elastic.membership.ClusterMembership`):

``join``
    A device is provisioned (or re-activated) and enters the active set.
``leave``
    Graceful departure: the device's in-flight update still merges with
    correct normalization before it is removed.
``fail``
    Abrupt loss: the device's in-flight update is discarded exactly once.
``throttle``
    The device stays active but its effective speed is multiplied by
    ``factor`` (0 < factor <= 1) — e.g. thermal or power capping.
``recover``
    The device's speed factor returns to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.gpu.churn import CHURN_PRESETS
from repro.utils.rng import make_rng, derive_seed

__all__ = [
    "EVENT_KINDS",
    "MembershipEvent",
    "MembershipTimeline",
    "TimelineCursor",
    "make_churn_timeline",
]

#: Valid lifecycle transitions, in the order the docs discuss them.
EVENT_KINDS = ("join", "leave", "fail", "throttle", "recover")


@dataclass(frozen=True)
class MembershipEvent:
    """One device-lifecycle transition at sim time ``t``.

    ``factor`` is only meaningful for ``throttle`` events (the speed
    multiplier applied to the device); every other kind must leave it
    ``None``. ``source`` records who scheduled the event — ``"timeline"``
    for authored/preset schedules, ``"autoscaler"`` for events the serving
    autoscaler synthesizes against queue depth.
    """

    t: float
    kind: str
    device_id: int
    factor: Optional[float] = None
    source: str = "timeline"

    def __post_init__(self) -> None:
        if not (isinstance(self.t, (int, float)) and math.isfinite(self.t)):
            raise ConfigurationError(f"event time must be finite, got {self.t!r}")
        if self.t < 0:
            raise ConfigurationError(f"event time must be >= 0, got {self.t}")
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown event kind {self.kind!r}; expected one of {EVENT_KINDS}"
            )
        if self.device_id < 0 or self.device_id != int(self.device_id):
            raise ConfigurationError(
                f"device_id must be a non-negative integer, got {self.device_id!r}"
            )
        if self.kind == "throttle":
            if self.factor is None or not math.isfinite(self.factor):
                raise ConfigurationError(
                    f"throttle events require a finite factor, got {self.factor!r}"
                )
            if not (0.0 < self.factor <= 1.0):
                raise ConfigurationError(
                    f"throttle factor must be in (0, 1], got {self.factor}"
                )
        elif self.factor is not None:
            raise ConfigurationError(
                f"{self.kind!r} events must not carry a factor (got {self.factor})"
            )


class MembershipTimeline:
    """An immutable, time-sorted schedule of membership events.

    Construction sorts by timestamp with a *stable* sort, so events at the
    same instant keep their authoring order.
    """

    def __init__(self, events: Iterable[MembershipEvent] = ()) -> None:
        evs = list(events)
        for e in evs:
            if not isinstance(e, MembershipEvent):
                raise ConfigurationError(
                    f"timeline entries must be MembershipEvent, got {type(e).__name__}"
                )
        self._events: Tuple[MembershipEvent, ...] = tuple(
            sorted(evs, key=lambda e: e.t)
        )

    @property
    def events(self) -> Tuple[MembershipEvent, ...]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[MembershipEvent]:
        return iter(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MembershipTimeline({len(self._events)} events)"

    def counts(self) -> Dict[str, int]:
        """Events per kind — the ``{"fail": 1, "join": 2, ...}`` summary."""
        out: Dict[str, int] = {}
        for e in self._events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def cursor(self) -> "TimelineCursor":
        return TimelineCursor(self)


class TimelineCursor:
    """Consumes a timeline: each event is delivered exactly once, in order.

    ``due(t)`` returns (and permanently consumes) every not-yet-delivered
    event with timestamp ``<= t``. Calls with a smaller ``t`` than a
    previous call simply return nothing — the cursor never rewinds, so no
    event can be delivered twice, and because the timeline is time-sorted
    the concatenation of all ``due`` results is in timestamp order.
    """

    def __init__(self, timeline: MembershipTimeline) -> None:
        self._events = timeline.events
        self._pos = 0

    @property
    def delivered(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._events) - self._pos

    def peek_t(self) -> Optional[float]:
        """Timestamp of the next undelivered event, or ``None`` if drained."""
        if self._pos >= len(self._events):
            return None
        return self._events[self._pos].t

    def due(self, t: float) -> Tuple[MembershipEvent, ...]:
        if not (isinstance(t, (int, float)) and math.isfinite(t)):
            raise ConfigurationError(f"cursor time must be finite, got {t!r}")
        start = self._pos
        while self._pos < len(self._events) and self._events[self._pos].t <= t:
            self._pos += 1
        return self._events[start:self._pos]


def _preset_spec(profile: str) -> dict:
    if profile not in CHURN_PRESETS:
        raise ConfigurationError(
            f"unknown churn profile {profile!r}; "
            f"expected one of {sorted(CHURN_PRESETS)}"
        )
    return CHURN_PRESETS[profile]


def _window_t(rng, duration_s: float, lo: float, hi: float) -> float:
    return float(duration_s * rng.uniform(lo, hi))


def make_churn_timeline(
    profile: str,
    *,
    n_devices: int,
    duration_s: float,
    seed: int = 0,
) -> MembershipTimeline:
    """Build a seeded churn timeline from a named preset.

    Presets are declared in :data:`repro.gpu.profiles.CHURN_PRESETS` (see
    that module's docstring table for per-preset event rates). Generation
    is deterministic in ``(profile, n_devices, duration_s, seed)``: event
    times are jittered inside fixed fractional windows of ``duration_s``
    and targets are drawn from a seeded permutation of the initial device
    set. Joining devices get fresh ids ``n_devices, n_devices + 1, ...``.

    The generator never schedules more ``fail`` events than
    ``n_devices - 1``, so a preset can never empty the cluster on its own; :class:`~repro.elastic.membership.ClusterMembership`
    additionally suppresses any hand-authored event that would.

    ``spot-churn`` always yields >= 1 fail, >= 1 join, and >= 1 throttle
    strictly inside the run — the mix the elastic bench gate exercises.
    """
    if n_devices < 1:
        raise ConfigurationError(f"n_devices must be >= 1, got {n_devices}")
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ConfigurationError(
            f"duration_s must be finite and > 0, got {duration_s}"
        )
    spec = _preset_spec(profile)
    rng = make_rng(derive_seed(seed, "churn", profile, n_devices))
    perm = [int(i) for i in rng.permutation(n_devices)]
    events: list[MembershipEvent] = []
    next_join_id = n_devices

    n_fail = int(spec.get("fails", 0))
    n_join = int(spec.get("joins", 0))
    if spec.get("scale_with_devices"):
        extra = max(0, (n_devices - 2) // 2)
        n_fail += extra
        n_join += extra
    n_fail = min(n_fail, n_devices - 1)  # never empty the cluster
    factor = float(spec.get("throttle_factor", 1.0))

    # Abrupt losses first (early in the run), replacements mid-run.
    for target in perm[:n_fail]:
        events.append(
            MembershipEvent(_window_t(rng, duration_s, 0.2, 0.38), "fail", target)
        )
    for _ in range(n_join):
        events.append(
            MembershipEvent(
                _window_t(rng, duration_s, 0.42, 0.6), "join", next_join_id
            )
        )
        next_join_id += 1

    # Every throttle recovers 0.22 T later (capped at 0.9 T).
    throttles = spec.get("throttles", 0)
    if throttles == "all":
        throttle_targets = list(range(n_devices))
    else:
        start = n_fail % n_devices
        throttle_targets = [
            perm[(start + i) % n_devices] for i in range(int(throttles))
        ]
    for target in throttle_targets:
        t0 = _window_t(rng, duration_s, 0.5, 0.62)
        events.append(MembershipEvent(t0, "throttle", target, factor=factor))
        t1 = min(t0 + 0.22 * duration_s, 0.9 * duration_s)
        events.append(MembershipEvent(max(t1, t0), "recover", target))
    return MembershipTimeline(events)
