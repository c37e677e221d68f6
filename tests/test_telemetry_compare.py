"""Tests for repro.telemetry.compare and repro.telemetry.promtext."""

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.environment import Environment
from repro.telemetry import Telemetry
from repro.telemetry.compare import (
    best_accuracy,
    compare_runs,
    time_to_accuracy,
)
from repro.telemetry.events import SpanEvent
from repro.telemetry.promtext import to_promtext, write_promtext
from repro.telemetry.events import RunData
from repro.telemetry.trace_data import TraceData, load_trace_data
from repro.utils.serialization import jsonable


def span(name, ts, dur, device=None, **args):
    return SpanEvent(name=name, ts=ts, dur=dur, run=0, device=device,
                     args=args)


def make_run(label, *, wall, step_s, merge_s=0.0, accuracy=(),
             updates=None):
    spans = [span("run", 0.0, wall),
             span("step.compute", 0.0, step_s, device=0, size=100)]
    if merge_s:
        spans.append(span("merge", step_s, merge_s))
    samples = {"accuracy": list(accuracy)}
    for device, value in (updates or {}).items():
        samples[f"gpu{device}/updates"] = [(wall, value)]
    return RunData(index=0, meta={"algorithm": label}, spans=spans,
                   samples=samples)


class TestAccuracyHelpers:
    def test_time_to_accuracy_first_crossing(self):
        run = make_run("a", wall=10.0, step_s=8.0,
                       accuracy=[(1.0, 0.3), (2.0, 0.8), (3.0, 0.9)])
        assert time_to_accuracy(run, 0.8) == 2.0
        assert time_to_accuracy(run, 0.95) is None

    def test_best_accuracy_ignores_nonfinite(self):
        run = make_run("a", wall=1.0, step_s=1.0,
                       accuracy=[(0.0, float("nan")), (1.0, 0.7)])
        assert best_accuracy(run) == 0.7
        assert best_accuracy(make_run("b", wall=1.0, step_s=1.0)) == 0.0


class TestCompareRuns:
    def test_tta_delta_and_speedup(self):
        baseline = make_run("base", wall=10.0, step_s=9.0,
                            accuracy=[(5.0, 0.8)])
        candidate = make_run("cand", wall=8.0, step_s=7.0,
                             accuracy=[(3.0, 0.85)])
        cmp = compare_runs(baseline, candidate)
        assert cmp.tta_target == pytest.approx(0.8)  # min of the two bests
        assert cmp.tta_delta_s == pytest.approx(-2.0)
        assert cmp.tta_speedup == pytest.approx(5.0 / 3.0)
        assert cmp.wall_speedup == pytest.approx(10.0 / 8.0)

    def test_explicit_target(self):
        baseline = make_run("base", wall=10.0, step_s=9.0,
                            accuracy=[(5.0, 0.9)])
        candidate = make_run("cand", wall=10.0, step_s=9.0,
                             accuracy=[(7.0, 0.9)])
        cmp = compare_runs(baseline, candidate, target=0.9)
        assert cmp.tta_target == 0.9
        assert cmp.tta_delta_s == pytest.approx(2.0)

    def test_unreached_target_gives_none_delta(self):
        baseline = make_run("base", wall=10.0, step_s=9.0,
                            accuracy=[(5.0, 0.8)])
        candidate = make_run("cand", wall=10.0, step_s=9.0,
                             accuracy=[(5.0, 0.5)])
        cmp = compare_runs(baseline, candidate, target=0.8)
        assert cmp.tta_candidate_s is None and cmp.tta_delta_s is None

    def test_phase_deltas_align_by_span_name(self):
        baseline = make_run("base", wall=10.0, step_s=9.0, merge_s=1.0)
        candidate = make_run("cand", wall=10.0, step_s=6.0)
        cmp = compare_runs(baseline, candidate)
        by_name = {p.name: p for p in cmp.phases}
        assert by_name["step.compute"].delta_s == pytest.approx(-3.0)
        assert by_name["step.compute"].speedup == pytest.approx(1.5)
        assert by_name["merge"].candidate_s == 0.0
        assert by_name["merge"].speedup is None

    def test_regression_beyond_noise(self):
        baseline = make_run("base", wall=10.0, step_s=5.0)
        candidate = make_run("cand", wall=10.0, step_s=5.6)
        cmp = compare_runs(baseline, candidate, noise=0.05)
        assert "step.compute" in cmp.regressions
        quiet = compare_runs(baseline,
                             make_run("c2", wall=10.0, step_s=5.2),
                             noise=0.05)
        assert quiet.regressions == []

    def test_update_totals(self):
        baseline = make_run("base", wall=10.0, step_s=5.0,
                            updates={0: 40.0, 1: 60.0})
        candidate = make_run("cand", wall=10.0, step_s=5.0,
                             updates={0: 30.0})
        cmp = compare_runs(baseline, candidate)
        assert cmp.updates_baseline == 100.0
        assert cmp.updates_candidate == 30.0

    def test_json_view_is_the_fields(self):
        cmp = compare_runs(make_run("a", wall=1.0, step_s=1.0),
                           make_run("b", wall=2.0, step_s=2.0))
        d = jsonable(cmp)
        assert d["baseline"] == "a" and d["candidate"] == "b"
        assert d["wall_speedup"] == 0.5 and d["tta_delta_s"] is None
        assert {p["name"]: p["speedup"] for p in d["phases"]} == {
            "run": 0.5, "step.compute": 0.5,
        }

    @pytest.mark.parametrize("knobs", [
        {"noise": float("nan")}, {"noise": float("inf")}, {"noise": -2.0},
        {"target": float("nan")}, {"target": 0.0}, {"target": 1.5},
    ], ids=lambda knobs: "-".join(f"{k}={v}" for k, v in knobs.items()))
    def test_rejects_non_finite_or_out_of_range_knobs(self, knobs):
        run = make_run("a", wall=1.0, step_s=1.0, accuracy=[(0.5, 0.5)])
        with pytest.raises(ConfigurationError, match=next(iter(knobs))):
            compare_runs(run, run, **knobs)

    def test_zero_duration_candidate(self):
        cmp = compare_runs(make_run("a", wall=1.0, step_s=1.0),
                           RunData(index=0, meta={"algorithm": "empty"}))
        assert cmp.wall_speedup is None


class TestPromtext:
    @pytest.fixture
    def recorded(self):
        tel = Telemetry(label="prom")
        env = Environment()
        tel.attach(env, algorithm="alpha", n_devices=1)

        def proc():
            with tel.span("step.compute", device=0, size=4):
                yield env.timeout(1.0)
            tel.counter("updates", 2, device=0)
            tel.gauge("accuracy", 0.5)

        env.process(proc())
        env.run()
        tel.detach()
        return tel

    def test_exposition_format(self, recorded):
        text = to_promtext(load_trace_data(recorded))
        lines = text.splitlines()
        assert any(line.startswith("# HELP repro_run_info") for line in lines)
        assert any(line.startswith("# TYPE repro_run_span_seconds gauge")
                   for line in lines)
        # Counters get the _total suffix and a counter TYPE.
        assert "# TYPE repro_updates_total counter" in lines
        sample = next(line for line in lines
                      if line.startswith("repro_updates_total{"))
        assert 'run="0"' in sample and 'device="0"' in sample
        assert sample.rstrip().endswith("2.0")

    def test_span_totals_exported(self, recorded):
        text = to_promtext(load_trace_data(recorded))
        assert ('repro_span_seconds_total'
                '{run="0",span="step.compute",device="0"} 1.0') in text
        assert ('repro_span_count_total'
                '{run="0",span="step.compute",device="0"} 1.0') in text

    def test_idle_accounting_exported(self, recorded):
        text = to_promtext(load_trace_data(recorded))
        assert 'repro_device_busy_seconds_total{run="0",device="0"} 1.0' \
            in text
        assert 'repro_device_gap_idle_seconds_total{run="0",device="0"} 0.0' \
            in text

    def test_every_line_is_well_formed(self, recorded):
        for line in to_promtext(load_trace_data(recorded)).splitlines():
            assert line.startswith("#") or " " in line

    def test_write_promtext(self, recorded, tmp_path):
        path = write_promtext(load_trace_data(recorded),
                              tmp_path / "metrics" / "run.prom")
        assert path.exists()
        assert "repro_run_info" in path.read_text()

    def test_empty_trace(self):
        text = to_promtext(TraceData(label="void"))
        assert isinstance(text, str)
