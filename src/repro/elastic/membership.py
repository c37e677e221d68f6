"""Cluster membership: applying a lifecycle timeline to a live server.

:class:`ClusterMembership` is the runtime half of the elastic subsystem. It
owns the *active set* — which installed devices may be given work right now
— and advances it by pulling events from a
:class:`~repro.elastic.timeline.MembershipTimeline` cursor as the sim clock
moves. Trainers and the serving engine stop iterating the server's static
gpu list and instead ask membership: ``is_active(device_id)`` /
``active_ids``.

Lifecycle semantics applied here:

- ``throttle`` / ``recover`` — the device's dynamic
  :meth:`~repro.gpu.device.VirtualGPU.set_speed_scale` multiplier changes;
  it stays in the active set.
- ``fail`` / ``leave`` — the device exits the active set. The two differ
  only in merge accounting (recorded for the trainer via
  :meth:`take_sync`): a leaver's in-flight update still merges, a failer's
  is discarded. Either transition is **suppressed** (recorded, not
  applied) if it would shrink the active set below :data:`MIN_ACTIVE` — the
  "active set never empty while work is in flight" invariant the property
  tests pin.
- ``join`` — an unknown device id is provisioned (a fresh
  :class:`~repro.gpu.device.VirtualGPU` with a seeded speed profile,
  installed via :meth:`~repro.gpu.cluster.MultiGPUServer.add_gpu`, which
  re-derives the interconnect); a known-but-inactive id re-enters with its
  throttle scale reset. Training admits joins only at mega-batch
  boundaries (the warm-start point — pass ``admit_joins=False`` from
  device managers and flush with ``admit_joins=True`` from the driver);
  serving admits them immediately.

Provisioned ids are kept contiguous: a join for an id that is neither
installed nor the next free slot is provisioned at the next slot and the
requested id recorded as ``alias`` — downstream arrays index by device id.

Merge accounting lives in :class:`UpdateLedger`: every update a device
*offers* toward a merge must be resolved — merged or discarded — exactly
once, across arbitrary churn schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.elastic.timeline import (
    MembershipEvent,
    MembershipTimeline,
    make_churn_timeline,
)
from repro.exceptions import ConfigurationError, MembershipError
from repro.gpu.cluster import MultiGPUServer
from repro.gpu.device import VirtualGPU
from repro.gpu.profiles import SpeedProfile
from repro.telemetry.core import NULL
from repro.telemetry.events import EVENT_MEMBERSHIP, GAUGE_ACTIVE_DEVICES
from repro.utils.rng import make_rng, derive_seed

__all__ = ["AppliedEvent", "UpdateLedger", "ClusterMembership", "MIN_ACTIVE"]

#: Smallest active set a ``fail`` / ``leave`` may leave behind.
MIN_ACTIVE = 1


@dataclass(frozen=True)
class AppliedEvent:
    """The record of one delivered event: what happened when it arrived."""

    t: float
    kind: str
    device_id: int
    factor: Optional[float]
    source: str
    #: False when a lifecycle guard suppressed the transition.
    applied: bool
    note: str = ""


class UpdateLedger:
    """Exactly-once merge accounting for offered replica updates.

    Each mega-batch, every device that held a replica *offers* its update
    count; at the boundary the trainer resolves each offer as **merged**
    (the replica participated in Algorithm 2's normalization) or
    **discarded** (a failed replica). Resolving twice, or leaving an offer
    unresolved at :meth:`assert_drained`, raises
    :class:`~repro.exceptions.MembershipError` — the invariant the
    derandomized property tests sweep arbitrary churn schedules against.
    """

    def __init__(self) -> None:
        self._next_token = 0
        self._open: Dict[int, Tuple[int, int]] = {}  # token -> (device, updates)
        self.n_offered = 0
        self.n_merged = 0
        self.n_discarded = 0
        self.updates_merged = 0
        self.updates_discarded = 0

    def offer(self, device_id: int, n_updates: int) -> int:
        if n_updates < 0:
            raise MembershipError(
                f"device {device_id} offered a negative update count: {n_updates}"
            )
        token = self._next_token
        self._next_token += 1
        self._open[token] = (int(device_id), int(n_updates))
        self.n_offered += 1
        return token

    def resolve(self, token: int, *, merged: bool) -> None:
        if token not in self._open:
            raise MembershipError(
                f"offer token {token} already resolved (or never offered): "
                "each offered update must be merged or discarded exactly once"
            )
        _, n_updates = self._open.pop(token)
        if merged:
            self.n_merged += 1
            self.updates_merged += n_updates
        else:
            self.n_discarded += 1
            self.updates_discarded += n_updates

    def assert_drained(self) -> None:
        if self._open:
            devices = sorted(d for d, _ in self._open.values())
            raise MembershipError(
                f"{len(self._open)} offered updates never resolved "
                f"(devices {devices})"
            )


class ClusterMembership:
    """The active-set state machine driving a server from a timeline.

    ``timeline`` may be a :class:`MembershipTimeline`, a churn preset name
    (resolved via :func:`~repro.elastic.timeline.make_churn_timeline` with
    ``duration_s``), or ``None`` for a static cluster that only the serving
    autoscaler mutates.
    """

    def __init__(
        self,
        server: MultiGPUServer,
        timeline: Optional[object] = None,
        *,
        duration_s: Optional[float] = None,
        seed: int = 0,
        telemetry=None,
    ) -> None:
        if isinstance(timeline, str):
            if duration_s is None:
                raise ConfigurationError(
                    "a churn preset name needs duration_s to place its events"
                )
            timeline = make_churn_timeline(
                timeline,
                n_devices=server.n_gpus,
                duration_s=duration_s,
                seed=seed,
            )
        elif timeline is None:
            timeline = MembershipTimeline()
        elif not isinstance(timeline, MembershipTimeline):
            raise ConfigurationError(
                f"timeline must be a MembershipTimeline or preset name, "
                f"got {type(timeline).__name__}"
            )
        self.server = server
        self.timeline = timeline
        self.seed = seed
        self.telemetry = telemetry if telemetry is not None else NULL
        self._cursor = timeline.cursor()
        self._active: Set[int] = set(server.device_ids)
        self._pending_joins: List[MembershipEvent] = []
        self._failed_since_sync: Set[int] = set()
        self._departed_since_sync: Set[int] = set()
        self._joined_since_sync: List[int] = []
        self.ledger = UpdateLedger()
        self.applied_events: List[AppliedEvent] = []
        self.n_suppressed = 0
        self._join_rng = make_rng(derive_seed(seed, "elastic", "join-profiles"))

    # -- active-set queries --------------------------------------------------
    @property
    def active_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._active))

    @property
    def n_active(self) -> int:
        return len(self._active)

    def is_active(self, device_id: int) -> bool:
        return device_id in self._active

    # -- event delivery ------------------------------------------------------
    def poll(self, t: float, *, admit_joins: bool = True) -> List[AppliedEvent]:
        """Apply every event due at sim time ``t``; return what was applied.

        With ``admit_joins=False`` (device managers mid-mega-batch), due
        ``join`` events are parked; a later poll with ``admit_joins=True``
        (the driver, at a boundary) flushes them first — so joins take
        effect exactly at the warm-start point.
        """
        applied: List[AppliedEvent] = []
        if admit_joins and self._pending_joins:
            pending, self._pending_joins = self._pending_joins, []
            for event in pending:
                applied.append(self._apply(event, t))
        for event in self._cursor.due(t):
            if event.kind == "join" and not admit_joins:
                self._pending_joins.append(event)
                continue
            applied.append(self._apply(event, t))
        return applied

    def next_event_t(self) -> Optional[float]:
        """Sim time of the next undelivered timeline event.

        Parked joins are already due (they flush on the next admitting
        poll), so they answer ``0.0``; ``None`` means the timeline is
        drained. Pollers use this to sleep exactly until the next event
        instead of burning a fixed cadence.
        """
        if self._pending_joins:
            return 0.0
        return self._cursor.peek_t()

    # -- autoscaler hooks ----------------------------------------------------
    def admit(self, t: float) -> AppliedEvent:
        """Synthesize an autoscaler ``join`` of the first inactive device
        (a new device id when every installed one is active)."""
        inactive = [
            g.device_id for g in self.server.gpus if g.device_id not in self._active
        ]
        device_id = inactive[0] if inactive else self.server.n_gpus
        event = MembershipEvent(max(t, 0.0), "join", device_id, source="autoscaler")
        return self._apply(event, t)

    def retire(self, t: float, device_id: int) -> AppliedEvent:
        """Synthesize an autoscaler ``leave`` (graceful scale-down)."""
        event = MembershipEvent(max(t, 0.0), "leave", device_id, source="autoscaler")
        return self._apply(event, t)

    # -- trainer synchronization --------------------------------------------
    def take_sync(self) -> Tuple[Set[int], Set[int], List[int]]:
        """Membership deltas since the last boundary: (failed, left, joined).

        Clears the accumulators — each transition is reported to the
        consumer exactly once, mirroring the ledger's exactly-once rule.
        """
        failed = self._failed_since_sync
        departed = self._departed_since_sync
        joined = self._joined_since_sync
        self._failed_since_sync = set()
        self._departed_since_sync = set()
        self._joined_since_sync = []
        return failed, departed, joined

    # -- summaries -----------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Delivered lifecycle events (applied + suppressed)."""
        return len(self.applied_events)

    def summary(self) -> Dict[str, object]:
        by_kind: Dict[str, int] = {}
        for e in self.applied_events:
            if e.applied:
                by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
        return {
            "n_events": self.n_events,
            "n_applied": sum(by_kind.values()),
            "n_suppressed": self.n_suppressed,
            "by_kind": by_kind,
            "final_devices": self.n_active,
            "updates_merged": self.ledger.updates_merged,
            "updates_discarded": self.ledger.updates_discarded,
        }

    # -- internals -----------------------------------------------------------
    def _provision(self, requested_id: int) -> VirtualGPU:
        installed = set(self.server.device_ids)
        device_id = (
            requested_id if requested_id not in installed else self.server.n_gpus
        )
        if device_id != self.server.n_gpus:
            # Keep ids contiguous: downstream arrays index by device id.
            device_id = self.server.n_gpus
        template = self.server.gpus[0]
        profile = SpeedProfile(
            base=float(self._join_rng.uniform(0.75, 1.0)),
            seed=derive_seed(self.seed, "elastic", "join-profile", device_id),
        )
        gpu = VirtualGPU(
            device_id=device_id,
            profile=profile,
            cost_model=template.cost_model,
            memory_bytes=template.memory_bytes,
        )
        self.server.add_gpu(gpu)
        return gpu

    def _record(self, record: AppliedEvent) -> AppliedEvent:
        self.applied_events.append(record)
        if not record.applied:
            self.n_suppressed += 1
        if self.telemetry.enabled:
            args = {
                "kind": record.kind,
                "source": record.source,
                "applied": record.applied,
            }
            if record.factor is not None:
                args["factor"] = record.factor
            if record.note:
                args["note"] = record.note
            self.telemetry.instant(
                EVENT_MEMBERSHIP, device=record.device_id, **args
            )
            self.telemetry.gauge(GAUGE_ACTIVE_DEVICES, float(self.n_active))
        return record

    def _suppress(self, event: MembershipEvent, t: float, note: str) -> AppliedEvent:
        return self._record(
            AppliedEvent(
                t=t,
                kind=event.kind,
                device_id=event.device_id,
                factor=event.factor,
                source=event.source,
                applied=False,
                note=note,
            )
        )

    def _apply(self, event: MembershipEvent, t: float) -> AppliedEvent:
        kind, dev = event.kind, event.device_id
        installed = set(self.server.device_ids)
        note = ""
        if kind in ("throttle", "recover"):
            if dev not in self._active:
                return self._suppress(event, t, "device not active")
            factor = event.factor if kind == "throttle" else 1.0
            self.server.device(dev).set_speed_scale(factor)
        elif kind in ("fail", "leave"):
            if dev not in self._active:
                return self._suppress(event, t, "device not active")
            if len(self._active) <= MIN_ACTIVE:
                return self._suppress(
                    event, t, f"would shrink active set below {MIN_ACTIVE}"
                )
            self._active.discard(dev)
            if kind == "fail":
                self._failed_since_sync.add(dev)
                self._departed_since_sync.discard(dev)
            else:
                self._departed_since_sync.add(dev)
        elif kind == "join":
            if dev in self._active:
                return self._suppress(event, t, "device already active")
            if dev in installed:
                self.server.device(dev).set_speed_scale(1.0)
                joined_id = dev
                note = "rejoin"
            else:
                gpu = self._provision(dev)
                joined_id = gpu.device_id
                if joined_id != dev:
                    note = f"alias for requested id {dev}"
            self._active.add(joined_id)
            self._joined_since_sync.append(joined_id)
            # A rejoin cancels a pending departure record for the same id.
            self._failed_since_sync.discard(joined_id)
            self._departed_since_sync.discard(joined_id)
            dev = joined_id
        return self._record(
            AppliedEvent(
                t=t,
                kind=kind,
                device_id=dev,
                factor=event.factor,
                source=event.source,
                applied=True,
                note=note,
            )
        )
