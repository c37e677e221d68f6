"""Tests for repro.telemetry.core — the recorder and the null sink."""

import pytest

from repro.exceptions import ConfigurationError
from repro.perf import profile as kernel_profile
from repro.sim.environment import Environment
from repro.telemetry import NULL, NullTelemetry, Telemetry
from repro.telemetry.core import _NULL_SPAN


def attached(tel=None):
    env = Environment()
    tel = tel or Telemetry()
    tel.attach(env, algorithm="test")
    return env, tel


class TestLifecycle:
    def test_attach_returns_run_index(self):
        tel = Telemetry()
        assert tel.run_index == -1
        assert not tel.attached
        assert tel.attach(Environment()) == 0
        assert tel.attached
        tel.detach()
        assert tel.attach(Environment()) == 1
        assert [run.index for run in tel.runs] == [0, 1]

    def test_attach_twice_raises(self):
        _, tel = attached()
        with pytest.raises(RuntimeError, match="already attached"):
            tel.attach(Environment())

    @pytest.mark.parametrize("key", ["type", "run"])
    def test_attach_rejects_the_run_records_own_keys(self, key):
        """``type`` and ``run`` are the archive run record's own fields: as
        metadata they would overwrite it, and the loader would skip it."""
        tel = Telemetry()
        with pytest.raises(ConfigurationError, match=key):
            tel.attach(Environment(), algorithm="a", **{key: 5})
        assert not tel.attached and tel.runs == []

    def test_detach_idempotent(self):
        _, tel = attached()
        tel.detach()
        tel.detach()
        assert not tel.attached

    def test_recording_unattached_raises(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError, match="not attached"):
            tel.instant("x")
        with pytest.raises(RuntimeError):
            tel.counter("x")
        with pytest.raises(RuntimeError):
            tel.gauge("x", 1.0)

    def test_run_metadata_stored(self):
        _, tel = attached()
        assert tel.runs[0].meta == {"algorithm": "test"}

    def test_attach_activates_kernel_profile(self):
        _, tel = attached()
        assert kernel_profile.active is tel.kernels
        tel.detach()
        assert kernel_profile.active is None


class TestSpans:
    def test_span_brackets_simulated_time(self):
        env, tel = attached()

        def proc():
            with tel.span("work", device=2, size=64):
                yield env.timeout(3.0)

        env.process(proc())
        env.run()
        (span,) = tel.runs[0].spans
        assert span.name == "work"
        assert span.ts == 0.0
        assert span.dur == 3.0
        assert span.run == 0
        assert span.device == 2
        assert span.args == {"size": 64}

    def test_nested_spans_record_inner_first(self):
        env, tel = attached()

        def proc():
            with tel.span("outer"):
                yield env.timeout(1.0)
                with tel.span("inner"):
                    yield env.timeout(2.0)
                yield env.timeout(1.0)

        env.process(proc())
        env.run()
        # Spans append on __exit__, so the inner one lands first.
        assert [s.name for s in tel.runs[0].spans] == ["inner", "outer"]
        inner, outer = tel.runs[0].spans
        assert (inner.ts, inner.dur) == (1.0, 2.0)
        assert (outer.ts, outer.dur) == (0.0, 4.0)
        # Nesting invariant: inner lies inside outer.
        assert outer.ts <= inner.ts
        assert inner.ts + inner.dur <= outer.ts + outer.dur

    def test_concurrent_spans_are_independent(self):
        env, tel = attached()

        def worker(device, delay):
            with tel.span("step", device=device):
                yield env.timeout(delay)

        env.process(worker(0, 1.0))
        env.process(worker(1, 2.5))
        env.run()
        by_device = {s.device: s for s in tel.runs[0].spans}
        assert by_device[0].dur == 1.0
        assert by_device[1].dur == 2.5

    def test_span_args_writable_while_open(self):
        env, tel = attached()

        def proc():
            with tel.span("merge") as sp:
                yield env.timeout(1.0)
                sp.args["branch"] = "perturbation"

        env.process(proc())
        env.run()
        assert tel.runs[0].spans[0].args["branch"] == "perturbation"


class TestInstantsCountersGauges:
    def test_instant_stamps_sim_clock(self):
        env, tel = attached()

        def proc():
            yield env.timeout(1.5)
            tel.instant("dispatch", device=1, size=32)

        env.process(proc())
        env.run()
        (inst,) = tel.runs[0].instants
        assert (inst.name, inst.ts, inst.device) == ("dispatch", 1.5, 1)
        assert inst.args == {"size": 32}

    def test_counter_is_cumulative_per_device(self):
        env, tel = attached()
        tel.counter("updates", 1, device=0)
        tel.counter("updates", 1, device=0)
        tel.counter("updates", 5, device=1)
        assert tel.runs[-1].samples == {
            "gpu0/updates": [(0.0, 1.0), (0.0, 2.0)],
            "gpu1/updates": [(0.0, 5.0)],
        }

    def test_counter_resets_across_runs(self):
        env, tel = attached()
        tel.counter("updates", 3)
        tel.detach()
        tel.attach(Environment())
        tel.counter("updates", 1)
        assert tel.runs[0].samples["updates"] == [(0.0, 3.0)]
        assert tel.runs[1].samples["updates"] == [(0.0, 1.0)]

    def test_gauge_samples_point_values(self):
        env, tel = attached()
        tel.gauge("accuracy", 0.25)
        tel.gauge("accuracy", 0.5)
        assert tel.runs[-1].samples["accuracy"] == [(0.0, 0.25), (0.0, 0.5)]

    def test_monitor_names_across_runs(self):
        env, tel = attached()
        tel.gauge("accuracy", 0.1)
        tel.detach()
        tel.attach(Environment())
        tel.counter("updates", 1, device=0)
        assert [list(run.samples) for run in tel.runs] == [
            ["accuracy"], ["gpu0/updates"],
        ]


class TestNullTelemetry:
    def test_disabled_flag(self):
        assert NULL.enabled is False
        assert Telemetry.enabled is True
        assert isinstance(NULL, NullTelemetry)

    def test_span_returns_shared_noop(self):
        sp = NULL.span("anything", device=3, size=1)
        assert sp is NULL.span("other")
        assert sp is _NULL_SPAN
        with sp as inner:
            inner.args["branch"] = "x"  # write-and-forget must not raise

    def test_records_nothing_without_attach(self):
        NULL.instant("x", device=0)
        NULL.counter("x", 5, device=0)
        NULL.gauge("x", 1.0)
        assert NULL.attach(Environment()) == -1
        NULL.detach()
        assert NULL.runs == []  # every record lives in a run
