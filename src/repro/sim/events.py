"""Core event primitives for the discrete-event engine.

The engine follows the classic process-interaction style (as popularized by
SimPy): an :class:`Event` is a one-shot occurrence with a value and a list of
callbacks; processes are Python generators that ``yield`` events and are
resumed when those events fire. This module defines the event types; the
scheduler lives in :mod:`repro.sim.environment`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.environment import Environment

__all__ = ["Event", "Timeout", "AllOf"]

# Scheduling priorities: lower runs first at equal simulation time.
URGENT = 0  # internal bookkeeping (condition events)
NORMAL = 1  # ordinary events


class Event:
    """A one-shot occurrence on the simulation timeline.

    Lifecycle: *pending* -> *triggered* (scheduled onto the event queue with a
    value) -> *processed* (callbacks ran). Events may succeed with a value or
    fail with an exception; a failed event re-raises inside any process that
    is waiting on it.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        #: Set once some consumer took responsibility for a failure.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's payload (raises if the event failed)."""
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiters will see ``exception`` raised."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._triggered = True
        self._exception = exception
        self.env._schedule(self, delay=0.0, priority=priority)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "processed" if self.processed else (
            "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    def __init__(self, env: "Environment", delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = float(delay)
        self._triggered = True
        env._schedule(self, delay=self.delay, priority=NORMAL)


class AllOf(Event):
    """Fires once every child event has fired; value is the list of values.

    Children that already fired by construction time are folded in
    immediately; the rest register callbacks.
    """

    def __init__(self, env: "Environment", events: Sequence[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([], priority=URGENT)
        for event in self._events:
            if self._triggered:
                break
            if event.processed:
                self._on_child(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            event._defused = True  # the condition re-raises it for us
            self.fail(event._exception, priority=URGENT)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self._events], priority=URGENT)
