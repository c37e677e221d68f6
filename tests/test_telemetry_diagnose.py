"""Tests for repro.telemetry.diagnose — the convergence-finding battery."""

import json

import pytest

from repro.telemetry.analyze import StragglerReport
from repro.telemetry.diagnose import (
    Finding,
    detect_batch_size_anomalies,
    detect_loss_anomalies,
    detect_lr_blowup,
    detect_staleness_growth,
    detect_straggler,
    diagnose,
)
from repro.telemetry.events import RunData, SpanEvent
from repro.utils.serialization import jsonable


def run_with(samples, spans=()):
    return RunData(index=0, meta={"algorithm": "unit"},
                   spans=list(spans), samples=dict(samples))


class TestFinding:
    def test_invalid_severity_raises(self):
        with pytest.raises(ValueError):
            Finding(detector="x", severity="fatal", message="m", run=0)

    def test_json_view_is_the_fields(self):
        f = Finding(detector="x", severity="info", message="m", run=1,
                    device=2, t_start=0.5, t_end=1.0, evidence={"k": 3})
        assert jsonable(f) == {
            "detector": "x", "severity": "info", "message": "m", "run": 1,
            "device": 2, "t_start": 0.5, "t_end": 1.0, "evidence": {"k": 3},
        }


class TestLossAnomalies:
    def test_leading_nan_checkpoint_is_legitimate(self):
        run = run_with({"loss": [(0.0, float("nan")), (1.0, 1.0),
                                 (2.0, 0.8)]})
        detectors = {f.detector for f in detect_loss_anomalies(run)}
        assert "loss_nonfinite" not in detectors

    def test_nonfinite_after_training_started_is_critical(self):
        run = run_with({"loss": [(0.0, 1.0), (1.0, float("nan"))]})
        (f,) = [f for f in detect_loss_anomalies(run)
                if f.detector == "loss_nonfinite"]
        assert f.severity == "critical"
        assert f.t_start == 1.0

    def test_divergence_warning_and_critical(self):
        warn = run_with({"loss": [(0.0, 1.0), (1.0, 0.5), (2.0, 1.5)]})
        (f,) = [f for f in detect_loss_anomalies(warn)
                if f.detector == "loss_divergence"]
        assert f.severity == "warning"      # 3x its minimum
        crit = run_with({"loss": [(0.0, 1.0), (1.0, 0.5), (2.0, 2.5)]})
        (f,) = [f for f in detect_loss_anomalies(crit)
                if f.detector == "loss_divergence"]
        assert f.severity == "critical"     # 5x its minimum

    def test_plateau_is_info(self):
        run = run_with({"loss": [(t, 1.0) for t in range(6)]})
        (f,) = [f for f in detect_loss_anomalies(run)
                if f.detector == "loss_plateau"]
        assert f.severity == "info"

    def test_healthy_descent_is_clean(self):
        run = run_with({"loss": [(0.0, 1.0), (1.0, 0.6), (2.0, 0.35),
                                 (3.0, 0.2)]})
        assert detect_loss_anomalies(run) == []

    def test_no_loss_series(self):
        assert detect_loss_anomalies(run_with({})) == []


class TestBatchSizeAnomalies:
    def test_oscillation_flagged(self):
        series = [(float(t), 64.0 if t % 2 == 0 else 128.0)
                  for t in range(8)]
        run = run_with({"gpu0/batch_size": series})
        detectors = [f.detector for f in detect_batch_size_anomalies(run)]
        assert "batch_size_oscillation" in detectors

    def test_saturation_at_observed_rail(self):
        run = run_with({
            "gpu0/batch_size": [(0.0, 64.0)] + [(float(t), 128.0)
                                                for t in range(1, 8)],
        })
        clamps = [f for f in detect_batch_size_anomalies(run)
                  if f.detector == "batch_size_clamp"]
        assert clamps and clamps[0].evidence["rail"] == "b_max"

    def test_saturation_at_the_lower_rail(self):
        run = run_with({
            "gpu0/batch_size": [(float(t), 32.0) for t in range(6)]
            + [(6.0, 48.0)],
        })
        clamps = [f for f in detect_batch_size_anomalies(run)
                  if f.detector == "batch_size_clamp"]
        assert clamps and clamps[0].evidence["rail"] == "b_min"

    def test_static_batch_algorithm_is_clean(self):
        run = run_with({
            "gpu0/batch_size": [(float(t), 64.0) for t in range(10)],
            "gpu1/batch_size": [(float(t), 64.0) for t in range(10)],
        })
        assert detect_batch_size_anomalies(run) == []

    def test_too_few_points_skipped(self):
        run = run_with({"gpu0/batch_size": [(0.0, 64.0), (1.0, 128.0)]})
        assert detect_batch_size_anomalies(run) == []

    def test_a_serving_run_is_skipped(self):
        """The same saturated series is the serve sizer's cap once the run
        recorded a ``serve.batch`` span: no finding."""
        series = {"gpu0/batch_size": [(0.0, 64.0)] + [(float(t), 128.0)
                                                      for t in range(1, 8)]}
        assert detect_batch_size_anomalies(run_with(series))
        batch = SpanEvent(name="serve.batch", run=0, device=0, ts=0.0,
                          dur=1.0, args={})
        assert detect_batch_size_anomalies(run_with(series, [batch])) == []

    def test_a_serve_archive_has_no_batch_size_finding(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        model, out = tmp_path / "M", tmp_path / "S"
        assert main(["snapshot", str(model), "--dataset", "micro",
                     "--time-budget-s", "0.02", "--gpus", "2"]) == 0
        assert main(["serve", str(model), "--mode", "adaptive",
                     "--requests", "3000", "--gpus", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        archive = tmp_path / "S.telemetry.jsonl"
        assert main(["analyze", str(archive), "--json"]) == 0
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        detectors = {f["detector"] for f in run["findings"]}
        assert not {d for d in detectors if d.startswith("batch_size")}


class TestLrBlowup:
    def test_blowup_is_critical(self):
        run = run_with({"gpu0/lr": [(0.0, 0.1), (1.0, 2.0)]})
        (f,) = detect_lr_blowup(run)
        assert f.severity == "critical" and f.device == 0
        assert f.evidence["ratio"] == pytest.approx(20.0)

    def test_stable_lr_is_clean(self):
        run = run_with({"gpu0/lr": [(0.0, 0.1), (1.0, 0.12)]})
        assert detect_lr_blowup(run) == []


class TestStalenessGrowth:
    def test_growth_flagged(self):
        series = [(float(t), 1.0) for t in range(4)] \
            + [(float(t), 8.0) for t in range(4, 8)]
        run = run_with({"staleness": series})
        (f,) = detect_staleness_growth(run)
        assert f.severity == "warning"

    def test_flat_staleness_is_clean(self):
        run = run_with({"staleness": [(float(t), 2.0) for t in range(8)]})
        assert detect_staleness_growth(run) == []


class TestStragglerBridge:
    def test_straggler_and_skew_findings(self):
        report = StragglerReport(
            run=0, label="unit", straggler=2,
            reason="gpu2 is 40.0% slower per sample than the fastest device",
            heterogeneity_index=0.4,
            update_counts={0: 100.0, 2: 50.0}, update_balance=0.5,
        )
        findings = detect_straggler(run_with({}), report=report)
        detectors = [f.detector for f in findings]
        assert detectors == ["straggler", "update_skew"]
        assert findings[0].device == 2

    def test_balanced_run_is_clean(self):
        report = StragglerReport(run=0, label="unit",
                                 update_counts={0: 10.0, 1: 10.0},
                                 update_balance=1.0)
        assert detect_straggler(run_with({}), report=report) == []


class TestDiagnose:
    def test_sorted_most_severe_first(self):
        run = run_with({
            "loss": [(0.0, 1.0), (1.0, float("nan")), (2.0, 1.0),
                     (3.0, 1.0), (4.0, 1.0)],
            "gpu0/lr": [(0.0, 0.1), (1.0, 5.0)],
        })
        findings = diagnose(run)
        severities = [f.severity for f in findings]
        assert severities == sorted(
            severities, key=("info", "warning", "critical").index,
            reverse=True,
        )
        assert severities[0] == "critical"

    def test_healthy_run_has_no_findings(self):
        run = run_with(
            {"loss": [(0.0, 1.0), (1.0, 0.5), (2.0, 0.25), (3.0, 0.1)]},
            spans=[SpanEvent(name="run", ts=0.0, dur=3.0, run=0,
                             device=None, args={})],
        )
        assert diagnose(run) == []
