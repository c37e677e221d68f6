"""Tests for repro.telemetry.analyze — attribution, stragglers, lanes."""

import json

import pytest

from repro.telemetry.analyze import (
    STRAGGLER_GAP,
    _difference_length,
    _length,
    _union,
    analyze_report,
    attribute_time,
    busy_and_gap_idle,
    critical_path,
    utilization_lanes,
)
from repro.telemetry.events import RunData, SpanEvent
from repro.telemetry.trace_data import TraceData


def span(name, ts, dur, device=None, run=0, **args):
    return SpanEvent(name=name, ts=ts, dur=dur, run=run, device=device,
                     args=args)


@pytest.fixture
def synthetic_run():
    """Two devices under a 10 s run: gpu0 slow, gpu1 fast, one merge.

    gpu0: step [0,4] (400 samples), transfer [4,4.5], step [5,8] (300).
    gpu1: step [0,2] (400), step [2,4] (400) — twice gpu0's throughput.
    driver: merge [8,9] containing allreduce [8.2,8.8].
    """
    return RunData(
        index=0,
        meta={"algorithm": "synthetic", "n_devices": 2},
        spans=[
            span("run", 0.0, 10.0),
            span("step.compute", 0.0, 4.0, device=0, size=400),
            span("transfer.model", 4.0, 0.5, device=0),
            span("step.compute", 5.0, 3.0, device=0, size=300),
            span("step.compute", 0.0, 2.0, device=1, size=400),
            span("step.compute", 2.0, 2.0, device=1, size=400),
            span("merge", 8.0, 1.0),
            span("merge.allreduce", 8.2, 0.6),
        ],
        samples={"gpu0/updates": [(9.0, 7.0)], "gpu1/updates": [(9.0, 8.0)]},
    )


class TestIntervalHelpers:
    def test_union_merges_overlaps(self):
        assert _union([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_union_drops_empty_intervals(self):
        assert _union([(1, 1), (2, 1)]) == []

    def test_length(self):
        assert _length([(0, 2), (5, 6.5)]) == pytest.approx(3.5)

    def test_difference_length(self):
        a = _union([(0.0, 10.0)])
        b = _union([(2.0, 3.0), (5.0, 7.0)])
        assert _difference_length(a, b) == pytest.approx(7.0)

    def test_difference_length_disjoint(self):
        assert _difference_length([(0.0, 1.0)], [(2.0, 3.0)]) == 1.0

    def test_difference_length_fully_covered(self):
        assert _difference_length([(1.0, 2.0)], [(0.0, 3.0)]) == 0.0


class TestAttribution:
    def test_components_sum_to_run_span(self, synthetic_run):
        att = attribute_time(synthetic_run)
        assert att.run_span_s == 10.0
        assert att.max_residual <= 1e-6  # the acceptance invariant
        for dev in att.devices:
            assert dev.total_s == pytest.approx(att.run_span_s, abs=1e-6)

    def test_per_device_components(self, synthetic_run):
        att = attribute_time(synthetic_run)
        gpu0 = att.devices[0]
        assert gpu0.compute_s == pytest.approx(7.0)
        assert gpu0.transfer_s == pytest.approx(0.5)
        assert gpu0.steps == 2 and gpu0.samples == 700
        # merge [8,9] is fully outside gpu0's busy union; the allreduce
        # slice [8.2,8.8] is attributed separately from the rest.
        assert gpu0.allreduce_wait_s == pytest.approx(0.6)
        assert gpu0.merge_wait_s == pytest.approx(0.4)
        assert gpu0.idle_s == pytest.approx(10.0 - 7.5 - 1.0)

    def test_driver_lane_totals(self, synthetic_run):
        att = attribute_time(synthetic_run)
        assert att.n_boundaries == 1
        assert att.driver["merge_s"] == pytest.approx(1.0)
        assert att.driver["allreduce_s"] == pytest.approx(0.6)
        assert att.driver["merge_other_s"] == pytest.approx(0.4)

    def test_gap_idle_rederived_without_idle_records(self, synthetic_run):
        att = attribute_time(synthetic_run)
        # gpu0 steps end at 4 and restart at 5 -> 1 s of compute gap.
        assert att.devices[0].gap_idle_s == pytest.approx(1.0)
        assert att.devices[1].gap_idle_s == pytest.approx(0.0)

    def test_an_old_archives_idle_records_are_not_read(self, synthetic_run,
                                                       tmp_path):
        """Archives written before idle was derived carry ``idle`` records;
        the loader skips them and the spans alone decide."""
        records = [
            {"type": "span", "name": s.name, "run": 0, "device": s.device,
             "ts": s.ts, "dur": s.dur, "args": s.args}
            for s in synthetic_run.spans
        ] + [{"type": "idle", "run": 0, "device": 0, "busy_s": 7.5,
              "idle_s": 0.25}]
        path = tmp_path / "old.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        (run,) = TraceData.from_jsonl(path).runs
        att = attribute_time(run)
        assert att.devices[0].gap_idle_s == 1.0
        assert busy_and_gap_idle(run) == {0: (7.0, 1.0), 1: (4.0, 0.0)}

    def test_throughput(self, synthetic_run):
        att = attribute_time(synthetic_run)
        assert att.devices[0].throughput == pytest.approx(100.0)
        assert att.devices[1].throughput == pytest.approx(200.0)

    def test_empty_run(self):
        att = attribute_time(RunData(index=0))
        assert att.devices == [] and att.run_span_s == 0.0
        assert att.max_residual == 0.0


class TestCriticalPath:
    def test_straggler_by_throughput(self, synthetic_run):
        report = critical_path(synthetic_run)
        assert report.straggler == 0
        assert report.heterogeneity_index == pytest.approx(1.0)
        assert report.slowdowns[0] == pytest.approx(1.0)
        assert report.slowdowns[1] == pytest.approx(0.0)
        assert "gpu0" in report.reason and "slower per sample" in report.reason

    def test_boundary_critical_device(self, synthetic_run):
        report = critical_path(synthetic_run)
        (diag,) = report.boundaries
        assert diag.critical_device == 0      # gpu0's step ends at the barrier
        assert diag.idle_before[0] == pytest.approx(0.0)
        assert diag.idle_before[1] == pytest.approx(4.0)
        assert report.critical_counts == {0: 1}

    def test_update_skew(self, synthetic_run):
        report = critical_path(synthetic_run)
        assert report.update_counts == {0: 7.0, 1: 8.0}
        assert report.update_skew == pytest.approx(1.0)
        assert report.update_balance == pytest.approx(7.0 / 8.0)

    def test_uniform_devices_have_no_straggler(self):
        run = RunData(index=0, spans=[
            span("run", 0.0, 4.0),
            span("step.compute", 0.0, 2.0, device=0, size=200),
            span("step.compute", 0.0, 2.0, device=1, size=200),
        ])
        report = critical_path(run)
        assert report.heterogeneity_index <= STRAGGLER_GAP
        assert report.straggler is None

    def test_arrival_fallback_when_speeds_match(self):
        # Same throughput, but gpu1 always finishes last before each merge.
        spans = [span("run", 0.0, 9.0)]
        for k in range(3):
            base = k * 3.0
            spans.append(span("step.compute", base, 1.0, device=0, size=100))
            spans.append(span("step.compute", base, 2.0, device=1, size=200))
            spans.append(span("merge", base + 2.0, 0.5))
        report = critical_path(RunData(index=0, spans=spans))
        assert report.heterogeneity_index <= STRAGGLER_GAP
        assert report.straggler == 1
        assert "last to arrive at 3/3" in report.reason

    def test_empty_run(self):
        report = critical_path(RunData(index=0))
        assert report.straggler is None and report.boundaries == []


class TestUtilizationLanes:
    def test_lane_glyphs(self, synthetic_run):
        lanes = utilization_lanes(synthetic_run)
        assert set(lanes) == {"gpu0", "gpu1", "driver"}
        glyphs0 = {glyph for _, _, glyph in lanes["gpu0"]}
        assert glyphs0 == {"#", "T"}
        driver_glyphs = {glyph for _, _, glyph in lanes["driver"]}
        assert driver_glyphs == {"M", "A"}

    def test_run_span_excluded(self, synthetic_run):
        lanes = utilization_lanes(synthetic_run)
        total = sum(len(v) for v in lanes.values())
        assert total == len(synthetic_run.spans) - 1  # minus the root span

    def test_empty_run_has_no_lanes(self):
        assert utilization_lanes(RunData(index=0)) == {}


class TestAnalyzeReport:
    def test_report_is_strict_json(self, synthetic_run):
        data = TraceData(label="t", runs=[synthetic_run])
        report = analyze_report(data)
        text = json.dumps(report, sort_keys=True, allow_nan=False)
        loaded = json.loads(text)
        assert loaded["label"] == "t"
        (run,) = loaded["runs"]
        assert run["attribution"]["max_residual"] <= 1e-6
        assert run["straggler"]["straggler"] == 0
        detectors = {f["detector"] for f in run["findings"]}
        assert "straggler" in detectors

    def test_run_selector(self, synthetic_run):
        data = TraceData(label="t", runs=[synthetic_run])
        report = analyze_report(data, run=0)
        assert len(report["runs"]) == 1

    def test_empty_trace(self):
        report = analyze_report(TraceData(label="void"))
        assert report == {"label": "void", "runs": [], "kernels": []}
