"""Tests for repro.telemetry.export (Chrome trace, JSONL) and the summary
table ``repro.harness.report`` lays out from a recorder."""

import json
import math

import numpy as np
import pytest

from repro.harness.report import render_telemetry_summary
from repro.sim.environment import Environment
from repro.telemetry import Telemetry
from repro.telemetry.export import (
    DRIVER_TID,
    iter_jsonl_records,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.trace_data import TraceData, load_trace_data
from repro.utils.serialization import jsonable


@pytest.fixture
def recorded():
    """A two-run recorder with spans, instants, counters, and a NaN arg."""
    tel = Telemetry(label="unit")
    env = Environment()
    tel.attach(env, algorithm="alpha", n_devices=2)

    def proc():
        with tel.span("step.compute", device=1, size=8):
            yield env.timeout(2.0)
        tel.instant("batch.dispatch", device=0, nnz=float("nan"))
        tel.counter("updates", 3, device=0)
        tel.gauge("accuracy", 0.5)

    env.process(proc())
    env.run()
    tel.detach()

    env2 = Environment()
    tel.attach(env2, algorithm="beta")
    with tel.span("merge", branch="uniform"):
        pass
    tel.detach()
    return tel


class TestChromeTrace:
    def test_strict_json_serializable(self, recorded):
        text = json.dumps(to_chrome_trace(recorded), allow_nan=False)
        json.loads(text)  # round-trips

    def test_phases_restricted(self, recorded):
        phases = {e["ph"] for e in to_chrome_trace(recorded)["traceEvents"]}
        assert phases <= {"X", "i", "C", "M"}

    def test_complete_events_carry_microseconds(self, recorded):
        trace = to_chrome_trace(recorded)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        step = next(e for e in spans if e["name"] == "step.compute")
        assert step["ts"] == 0.0
        assert step["dur"] == pytest.approx(2.0 * 1e6)  # seconds -> us
        for e in spans:
            assert isinstance(e["ts"], float) and isinstance(e["dur"], float)
            assert math.isfinite(e["ts"]) and e["dur"] >= 0.0

    def test_pid_is_run_and_tid_is_device_plus_one(self, recorded):
        trace = to_chrome_trace(recorded)
        step = next(
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "step.compute"
        )
        assert (step["pid"], step["tid"]) == (0, 2)  # run 0, device 1
        merge = next(
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "merge"
        )
        assert (merge["pid"], merge["tid"]) == (1, DRIVER_TID)

    def test_counters_exported_as_counter_events(self, recorded):
        trace = to_chrome_trace(recorded)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert "gpu0/updates" in names and "accuracy" in names
        upd = next(e for e in counters if e["name"] == "gpu0/updates")
        assert upd["args"] == {"value": 3.0}

    def test_metadata_names_processes_and_threads(self, recorded):
        trace = to_chrome_trace(recorded)
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in meta if e["name"] == "process_name"
        }
        assert process_names[0] == "alpha (2 dev)"
        assert process_names[1] == "beta"
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in meta if e["name"] == "thread_name"
        }
        assert thread_names[(0, DRIVER_TID)] == "driver"
        assert thread_names[(0, 2)] == "gpu1"

    def test_nan_args_become_null(self, recorded):
        trace = to_chrome_trace(recorded)
        dispatch = next(
            e for e in trace["traceEvents"]
            if e["ph"] == "i" and e["name"] == "batch.dispatch"
        )
        assert dispatch["args"]["nnz"] is None
        assert dispatch["s"] == "t"

    def test_write_chrome_trace(self, recorded, tmp_path):
        path = write_chrome_trace(recorded, tmp_path / "out" / "t.trace.json")
        assert path.exists()
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["otherData"]["label"] == "unit"
        assert len(loaded["otherData"]["runs"]) == 2


class TestJsonl:
    def test_record_types(self, recorded):
        records = list(iter_jsonl_records(recorded))
        types = {r["type"] for r in records}
        assert {"run", "span", "instant", "counter"} <= types
        runs = [r for r in records if r["type"] == "run"]
        assert [r["run"] for r in runs] == [0, 1]
        assert runs[0]["algorithm"] == "alpha"

    def test_span_record_fields(self, recorded):
        span = next(
            r for r in iter_jsonl_records(recorded)
            if r["type"] == "span" and r["name"] == "step.compute"
        )
        assert span["run"] == 0
        assert span["device"] == 1
        assert span["dur"] == 2.0
        assert span["args"] == {"size": 8}

    def test_write_jsonl_is_strict_json_lines(self, recorded, tmp_path):
        path = write_jsonl(recorded, tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)  # every line parses; NaN would raise
        assert '"nnz": null' in path.read_text()


class TestDeepClean:
    def test_nested_nonfinite_floats_become_null(self):
        cleaned = jsonable({
            "x": float("nan"),
            "nested": {"inf": float("inf"), "ok": 1.5},
            "seq": [float("-inf"), 2, "s"],
        })
        assert cleaned == {
            "x": None,
            "nested": {"inf": None, "ok": 1.5},
            "seq": [None, 2, "s"],
        }
        json.dumps(cleaned, allow_nan=False)

    def test_numpy_scalars_and_arrays(self):
        cleaned = jsonable({
            "i": np.int64(7),
            "f": np.float32(0.5),
            "bad": np.float64("nan"),
            "arr": np.array([1.0, 2.0]),
        })
        assert cleaned == {"i": 7, "f": 0.5, "bad": None, "arr": [1.0, 2.0]}
        json.dumps(cleaned, allow_nan=False)

    def test_non_primitive_falls_back_to_str(self):
        assert isinstance(jsonable(object()), str)
        assert jsonable({"p": Environment}) == {"p": str(Environment)}

    def test_nested_nan_in_span_args_exports_strictly(self, tmp_path):
        tel = Telemetry()
        tel.attach(Environment(), algorithm="deep")
        with tel.span("merge", stats={"ratio": float("nan"),
                                      "sizes": np.array([3, 4])}):
            pass
        tel.detach()
        json.dumps(to_chrome_trace(tel), allow_nan=False)
        path = write_jsonl(tel, tmp_path / "deep.jsonl")
        span = next(
            json.loads(line) for line in path.read_text().splitlines()
            if json.loads(line)["type"] == "span"
        )
        assert span["args"]["stats"] == {"ratio": None, "sizes": [3, 4]}


class TestEmptyAndZeroSpanRuns:
    def test_empty_recorder_round_trips(self, tmp_path):
        tel = Telemetry(label="empty")
        chrome = to_chrome_trace(tel)
        json.dumps(chrome, allow_nan=False)
        assert chrome["traceEvents"] == []
        path = write_jsonl(tel, tmp_path / "empty.jsonl")
        data = TraceData.from_jsonl(path)
        assert data.label == "empty"
        assert data.runs == []

    def test_attached_but_zero_span_run_round_trips(self, tmp_path):
        tel = Telemetry(label="zero")
        tel.attach(Environment(), algorithm="noop", n_devices=2)
        tel.detach()
        path = write_jsonl(tel, tmp_path / "zero.jsonl")
        data = TraceData.from_jsonl(path)
        assert len(data.runs) == 1
        run = data.run(0)
        assert run.spans == [] and run.duration() == 0.0
        chrome = to_chrome_trace(tel)
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        assert meta  # process metadata still names the empty run
        loaded = load_trace_data(
            write_chrome_trace(tel, tmp_path / "zero.trace.json")
        )
        assert loaded.run(0).meta["algorithm"] == "noop"


class TestRoundTrip:
    def test_jsonl_round_trip_preserves_stream(self, recorded, tmp_path):
        path = write_jsonl(recorded, tmp_path / "rt.jsonl")
        data = TraceData.from_jsonl(path)
        assert data.label == "unit"
        assert len(data.runs) == 2
        run0 = data.run(0)
        (step,) = run0.spans_named("step.compute")
        assert step.dur == 2.0 and step.device == 1
        assert step.args == {"size": 8}
        assert run0.series("gpu0/updates") == [(2.0, 3.0)]
        # Re-normalizing the archive equals normalizing the recorder.
        live = TraceData.from_telemetry(recorded)
        assert [s.name for r in live.runs for s in r.spans] == \
               [s.name for r in data.runs for s in r.spans]

    def test_chrome_round_trip_preserves_events(self, recorded, tmp_path):
        path = write_chrome_trace(recorded, tmp_path / "rt.trace.json")
        data = load_trace_data(path)
        assert data.label == "unit"
        assert len(data.runs) == 2
        (step,) = data.run(0).spans_named("step.compute")
        assert step.dur == pytest.approx(2.0)
        assert step.device == 1
        (merge,) = data.run(1).spans_named("merge")
        assert merge.device is None and merge.args["branch"] == "uniform"

    def test_jsonl_stream_carries_trace_label_header(self, recorded):
        first = next(iter_jsonl_records(recorded))
        assert first == {"type": "trace", "label": "unit"}


class TestSummaryTable:
    def test_lists_spans_with_counts(self, recorded):
        out = render_telemetry_summary(recorded)
        assert "step.compute" in out and "merge" in out
        assert "2 run(s)" in out

    def test_empty_recorder_renders(self):
        out = render_telemetry_summary(Telemetry())
        assert "0 run(s)" in out
