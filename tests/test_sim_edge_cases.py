"""Edge-case tests for the simulation engine beyond the basic semantics."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import URGENT, Event


class TestSchedulingOrder:
    def test_urgent_priority_precedes_normal_at_equal_time(self):
        env = Environment()
        order = []
        normal = env.event()
        urgent = env.event()
        normal.callbacks.append(lambda e: order.append("normal"))
        urgent.callbacks.append(lambda e: order.append("urgent"))
        normal.succeed()                 # scheduled first...
        urgent.succeed(priority=URGENT)  # ...but urgent jumps the queue
        env.run()
        assert order == ["urgent", "normal"]

    def test_condition_value_available_same_timestamp(self):
        """AllOf fires URGENT so waiters resume at the same sim time as the
        last child, not an instant later."""
        env = Environment()

        def proc():
            yield env.all_of([env.timeout(1), env.timeout(1)])
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == 1.0

    def test_zero_delay_chain_makes_no_time_progress(self):
        env = Environment()

        def proc():
            for _ in range(100):
                yield env.timeout(0.0)
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == 0.0


class TestRunUntil:
    def test_frozen_process_resumes_on_continued_run(self):
        env = Environment()

        def proc():
            yield env.timeout(10)
            return "done"

        p = env.process(proc())
        env.run(until=5.0)
        assert p.is_alive and env.now == 5.0
        env.run()
        assert p.value == "done" and env.now == 10.0

    def test_until_exactly_at_event_time_fires_it(self):
        env = Environment()
        fired = []
        t = env.timeout(3.0)
        t.callbacks.append(lambda e: fired.append(env.now))
        env.run(until=3.0)
        assert fired == [3.0]


class TestProcessLifecycles:
    def test_immediate_return_process(self):
        env = Environment()

        def proc():
            return 5
            yield  # pragma: no cover - makes it a generator

        p = env.process(proc())
        env.run()
        assert p.value == 5

    def test_many_waiters_on_one_process(self):
        env = Environment()

        def producer():
            yield env.timeout(2)
            return "result"

        prod = env.process(producer())
        outputs = []

        def consumer():
            value = yield prod
            outputs.append((env.now, value))

        for _ in range(5):
            env.process(consumer())
        env.run()
        assert outputs == [(2.0, "result")] * 5

    def test_exhausted_generator_completes_immediately(self):
        """Re-registering a spent generator yields an immediately-finished
        process with value None (StopIteration on first resume) — documented
        behavior, not silent hanging."""
        env = Environment()

        def proc():
            yield env.timeout(1)
            return "first"

        gen = proc()
        first = env.process(gen)
        env.run()
        assert first.value == "first"
        env2 = Environment()
        reused = env2.process(gen)
        env2.run()
        assert not reused.is_alive
        assert reused.value is None
