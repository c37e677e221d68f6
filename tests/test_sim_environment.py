"""Tests for repro.sim.environment — scheduling and process semantics."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.environment import Environment


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_advances_clock_exactly(self):
        env = Environment()
        env.timeout(10)
        final = env.run(until=4.0)
        assert final == 4.0 == env.now

    def test_run_until_past_rejected(self):
        env = Environment(initial_time=2.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_step_on_empty_rejected(self):
        with pytest.raises(SimulationError):
            Environment().step()


class TestDeterminism:
    def test_equal_time_events_fire_in_creation_order(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_replay_identical(self):
        def build_and_run():
            env = Environment()
            log = []

            def proc(tag, delay):
                yield env.timeout(delay)
                log.append((env.now, tag))

            env.process(proc("x", 2))
            env.process(proc("y", 1))
            env.process(proc("z", 2))
            env.run()
            return log

        assert build_and_run() == build_and_run()


class TestProcesses:
    def test_return_value_becomes_event_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
            return 42

        p = env.process(proc())
        assert env.run_until_complete(p) == 42

    def test_process_waits_on_process(self):
        env = Environment()

        def inner():
            yield env.timeout(2)
            return "inner-done"

        def outer():
            result = yield env.process(inner())
            return (env.now, result)

        p = env.process(outer())
        env.run()
        assert p.value == (2.0, "inner-done")

    def test_yield_non_event_crashes_simulation(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_unhandled_exception_surfaces(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise ValueError("inside process")

        env.process(bad())
        with pytest.raises(SimulationError, match="crashed"):
            env.run()

    def test_waiter_can_catch_process_failure(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise ValueError("expected")

        def waiter():
            try:
                yield env.process(bad())
            except ValueError:
                return "caught"

        p = env.process(waiter())
        env.run()
        assert p.value == "caught"

    def test_is_alive(self):
        env = Environment()

        def proc():
            yield env.timeout(3)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_yield_already_processed_event_resumes(self):
        env = Environment()
        t = env.timeout(1, "v")
        env.run()

        def proc():
            val = yield t
            return val

        p = env.process(proc())
        env.run()
        assert p.value == "v"

    def test_deadlock_detected(self):
        env = Environment()

        def stuck():
            yield env.event()  # never triggered

        p = env.process(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            env.run_until_complete(p)


class TestClose:
    def test_close_drops_pending_events_and_parked_processes(self):
        env = Environment()
        closed = []

        def parked():
            try:
                yield env.timeout(10.0)
            finally:
                closed.append(env.now)

        def short():
            yield env.timeout(1.0)

        env.process(parked())
        env.run_until_complete(env.process(short()))
        env.close()
        # Dropped by refcount on the spot, never resumed.
        assert closed == [1.0]
        assert env.peek() == float("inf")
