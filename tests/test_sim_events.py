"""Tests for repro.sim.events — event lifecycle and composite conditions."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import AllOf, Event, Timeout


class TestEventLifecycle:
    def test_initial_state(self):
        env = Environment()
        event = env.event()
        assert not event.triggered and not event.processed

    def test_succeed_carries_value(self):
        env = Environment()
        event = env.event()
        event.succeed("payload")
        assert event.triggered
        env.run()
        assert event.processed
        assert event.value == "payload"

    def test_double_succeed_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_then_value_raises(self):
        env = Environment()
        event = env.event()
        event.fail(ValueError("boom"))
        env.run()
        with pytest.raises(ValueError, match="boom"):
            _ = event.value
        assert not event.ok

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not-an-exception")

    def test_callbacks_run_once(self):
        env = Environment()
        event = env.event()
        calls = []
        event.callbacks.append(lambda e: calls.append(e.value))
        event.succeed(7)
        env.run()
        assert calls == [7]


class TestTimeout:
    def test_fires_at_delay(self):
        env = Environment()
        Timeout(env, 2.5)
        env.run()
        assert env.now == 2.5

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_zero_delay_allowed(self):
        env = Environment()
        env.timeout(0.0)
        env.run()
        assert env.now == 0.0

    def test_value_passthrough(self):
        env = Environment()
        received = []

        def proc():
            received.append((yield env.timeout(1, "tick")))

        env.process(proc())
        env.run()
        assert received == ["tick"]


class TestAllOf:
    def test_waits_for_all(self):
        env = Environment()
        results = []

        def proc():
            vals = yield env.all_of([env.timeout(1, "a"), env.timeout(3, "b")])
            results.append((env.now, vals))

        env.process(proc())
        env.run()
        assert results == [(3.0, ["a", "b"])]

    def test_empty_fires_immediately(self):
        env = Environment()
        results = []

        def proc():
            vals = yield env.all_of([])
            results.append(vals)

        env.process(proc())
        env.run()
        assert results == [[]]

    def test_already_processed_children(self):
        env = Environment()
        t = env.timeout(1, "x")
        env.run()

        def proc():
            vals = yield env.all_of([t])
            return vals

        p = env.process(proc())
        env.run()
        assert p.value == ["x"]

    def test_child_failure_propagates(self):
        env = Environment()
        bad = env.event()
        bad.fail(RuntimeError("child died"))
        seen = []

        def proc():
            try:
                yield env.all_of([env.timeout(1), bad])
            except RuntimeError as exc:
                seen.append(str(exc))

        env.process(proc())
        env.run()
        assert seen == ["child died"]

    def test_cross_environment_rejected(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(SimulationError):
            AllOf(env1, [env2.event()])
