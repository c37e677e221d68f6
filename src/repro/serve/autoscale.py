"""Elastic serving: membership events and the queue-depth autoscaler.

Given a :class:`~repro.elastic.membership.ClusterMembership`
(``membership=`` at serve time), the driver-level
:func:`membership_manager` process polls the lifecycle timeline every
:data:`POLL_S` sim seconds, or every 1/256 of the arrival window when that
is shorter, and applies events between batches:

- ``throttle``/``recover`` change a device's dynamic speed scale — the
  next batch it prices is slower/faster, nothing else moves;
- ``fail``/``leave`` drop the device from the active set: its worker
  finishes the in-flight batch (sim timeouts are uninterruptible — the
  retirement drain), then parks; queued work re-routes to the survivors
  on their next pull;
- ``join`` provisions a fresh device (or re-admits a parked one) and the
  manager spawns a worker for it immediately — serving has no warm-start
  barrier, so joins take effect at the next dispatch.

With ``autoscale=True`` the same manager runs a queue-depth autoscaler
through the same membership object (:func:`autoscale_decision`): depth at
or above ``HIGH_DEPTH × (1 + admitted)`` admits one device
(``membership.admit``, source ``"autoscaler"``); depth at or below
``LOW_DEPTH`` retires the most recent autoscaler admission (never a
baseline device, never below ``MIN_DEVICES``). Every
transition lands in telemetry as a ``membership.event`` instant plus the
``active_devices`` gauge, so ``repro analyze`` can attribute latency
spikes to the membership event that caused them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.serve.run import ServeRun

__all__ = ["membership_manager", "autoscale_decision"]

#: Longest sim time between membership polls.
POLL_S = 1e-3
#: Queue depth at or above which the autoscaler admits its first device.
HIGH_DEPTH = 64
#: Queue depth at or below which it retires one of its own admissions.
LOW_DEPTH = 4
#: The autoscaler never retires below this many active devices.
MIN_DEVICES = 1


def autoscale_decision(
    depth: int, n_admitted: int, n_active: int
) -> Optional[str]:
    """``"admit"``, ``"retire"`` or ``None`` for one autoscaler tick.

    Each further admission demands proportionally more backlog —
    hysteresis against per-tick flapping. Only the autoscaler's own
    admissions are ever retired, and never below :data:`MIN_DEVICES`
    active devices.
    """
    if depth >= HIGH_DEPTH * (1 + n_admitted):
        return "admit"
    if depth <= LOW_DEPTH and n_admitted and n_active > MIN_DEVICES:
        return "retire"
    return None


def membership_manager(run: ServeRun, membership):
    """Sim process: deliver lifecycle events and autoscaler decisions."""
    env, autoscale = run.env, run.config.autoscale
    # A short simulated arrival window would be over in a few 1 ms polls;
    # track its own timescale so the autoscaler reacts while the queue
    # still exists.
    window = float(run.requests.arrival[-1])
    cadence = min(POLL_S, window / 256.0) if window > 0 else POLL_S
    #: Stack of autoscaler-admitted device ids (retire newest first).
    admitted: List[int] = []
    run.admit_due()  # before depth is read or set_n_devices moves the gate
    while not run.drained():
        applied = membership.poll(env.now)
        decision = None
        if autoscale:
            decision = autoscale_decision(
                run.scheduler.depth, len(admitted), membership.n_active
            )
        if decision == "admit":
            event = membership.admit(env.now)
            if event.applied:
                admitted.append(event.device_id)
                run.n_autoscale_admits += 1
                applied.append(event)
        elif decision == "retire":
            event = membership.retire(env.now, admitted[-1])
            if event.applied:
                admitted.pop()
                run.n_autoscale_retires += 1
                applied.append(event)
        if applied:
            run.spawn_workers()
            run.scheduler.set_n_devices(max(1, membership.n_active))
            run.wake_all()
        # Sleep until the next timeline event if it lands before the
        # autoscaler cadence — a sub-cadence event must not be slept past.
        delay = cadence
        next_t = membership.next_event_t()
        if next_t is not None and next_t > env.now:
            delay = min(delay, next_t - env.now)
        yield env.timeout(delay)
        run.admit_due()
    # Parked (inactive) workers check drained() on wake — release them so
    # the run can end.
    run.wake_all()
