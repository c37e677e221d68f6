"""The discrete-event simulation environment and process machinery.

:class:`Environment` owns the virtual clock and the pending-event heap.
:class:`Process` wraps a Python generator: the generator ``yield``s events
(typically :class:`~repro.sim.events.Timeout` or resource requests) and is
resumed with the event's value when it fires; ``return value`` ends the
process and triggers it as an event with that value — so processes compose
(a process can ``yield`` another process).

This is a from-scratch simpy-lite sized for the HeteroGPU simulation: a
single-threaded, deterministic scheduler with (time, priority, sequence)
ordering so equal-time events always fire in creation order.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.exceptions import SimulationError
from repro.sim.events import AllOf, Event, Timeout, NORMAL

__all__ = ["Environment", "Process"]

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process (itself an event: fires at termination).

    Created via :meth:`Environment.process`. The wrapped generator must yield
    :class:`Event` instances; yielding anything else is a programming error
    surfaced as :class:`~repro.exceptions.SimulationError`.
    """

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Environment.process() requires a generator, got {generator!r}"
            )
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off on the next scheduler step at the current time.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)  # type: ignore[union-attr]
        bootstrap._triggered = True
        env._schedule(bootstrap, delay=0.0, priority=NORMAL)

    @property
    def is_alive(self) -> bool:
        """Whether the process has not yet terminated."""
        return not self._triggered

    def _run_callbacks(self) -> None:
        super()._run_callbacks()
        if self._exception is not None and not self._defused:
            # A dead process nobody was waiting on: abort the simulation
            # loudly rather than silently dropping it. (Bare events and
            # conditions may carry failures without escalation — they are
            # data; a process is control flow.)
            raise SimulationError(
                f"process {self.name!r} crashed at t={self.env.now:g} with "
                f"nobody waiting: {self._exception!r}"
            ) from self._exception

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the value (or exception) of ``trigger``."""
        try:
            if trigger._exception is not None:
                # Throwing a failure into a waiting generator consumes it:
                # the failure is now this process's to handle or re-raise.
                trigger._defused = True
                target = self._generator.throw(trigger._exception)
            else:
                target = self._generator.send(trigger._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # Process died with an unhandled exception: propagate to waiters;
            # if nobody is waiting when the event fires, the simulation aborts
            # (see _run_callbacks).
            self.fail(exc)
            return
        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded a non-event: {target!r}"
            )
            self.fail(error)
            return
        if target.processed:
            # Already fired: resume on the next step at the current time.
            rearm = Event(self.env)
            rearm._triggered = True
            rearm._value = target._value
            rearm._exception = target._exception
            rearm.callbacks.append(self._resume)  # type: ignore[union-attr]
            self.env._schedule(rearm, delay=0.0, priority=NORMAL)
        else:
            assert target.callbacks is not None
            target.callbacks.append(self._resume)


class Environment:
    """Owner of the virtual clock and the event heap.

    Typical driver::

        env = Environment()

        def worker(env):
            yield env.timeout(1.5)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 1.5 and proc.value == "done"
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: List[tuple] = []
        self._sequence = count()

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event, to be triggered manually."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start ``generator`` as a process; returns its termination event."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, list(events))

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        heapq.heappush(
            self._heap, (self._now + delay, priority, next(self._sequence), event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _priority, _seq, event = heapq.heappop(self._heap)
        if when < self._now:  # pragma: no cover - guarded by construction
            raise SimulationError("time went backwards")
        self._now = when
        event._run_callbacks()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the schedule drains or the clock reaches ``until``.

        Returns the final simulated time. With ``until`` set, the clock is
        advanced exactly to ``until`` even if the next event lies beyond it.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})"
            )
        while self._heap:
            if until is not None and self.peek() > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, float(until))
        return self._now

    def run_until_complete(self, process: Process) -> Any:
        """Run until ``process`` terminates; return its value."""
        while process.is_alive:
            if not self._heap:
                raise SimulationError(
                    f"deadlock: schedule drained but {process.name!r} is alive"
                )
            self.step()
        return process.value

    def close(self) -> None:
        """Drop every pending event; the owner calls it when its run ends.

        A process still parked on the heap (a worker abandoned mid-timeout
        when its driver returned) holds its generator, whose frame holds
        this environment. Emptying the heap breaks that cycle, so the
        generators are closed and everything they reference is freed here
        and now instead of whenever the cycle collector next runs.
        """
        self._heap.clear()
