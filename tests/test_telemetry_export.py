"""Tests for repro.telemetry.export (Chrome trace, JSONL) and the summary
table ``repro.harness.report`` lays out from a recorder."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import DataFormatError
from repro.harness.report import render_telemetry_summary
from repro.sim.environment import Environment
from repro.telemetry import Telemetry
from repro.telemetry.events import InstantEvent
from repro.telemetry.export import (
    CHROME_BLOCK,
    DRIVER_TID,
    iter_chrome_events,
    iter_jsonl_records,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.trace_data import TraceData, load_trace_data
from repro.utils.serialization import jsonable
from tests import reference

CLOCK = "simulated seconds (exported as microseconds)"


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


def recorder_with(n_events: int) -> Telemetry:
    """A recorder whose Chrome export is exactly ``n_events`` events: none
    for 0; otherwise one run without metadata, whose two ``M`` events name
    the run and its driver thread, and ``n_events - 2`` driver-level spans,
    instants and counter samples in turn."""
    tel = Telemetry(label="blocks")
    if n_events == 0:
        return tel
    env = Environment()
    tel.attach(env)
    for i in range(n_events - 2):
        ts = i * 1e-3
        env.run(until=ts)
        if i % 3 == 0:
            tel.record_span("step", ts, 1e-3, i=i)
        elif i % 3 == 1:
            tel.instant("dispatch", nnz=float("nan"))
        else:
            tel.counter("updates")
    tel.detach()
    return tel


def chrome_file(tel, path):
    """Write ``tel``'s Chrome trace to ``path`` and parse it back."""
    return json.loads(write_chrome_trace(tel, path).read_text())


class TestChromeTrace:
    def test_strict_json_serializable(self, recorded, tmp_path):
        text = write_chrome_trace(recorded, tmp_path / "t.json").read_text()
        json.loads(text, parse_constant=pytest.fail)  # strict: no NaN token

    def test_phases_restricted(self, recorded):
        phases = {e["ph"] for e in iter_chrome_events(recorded)}
        assert phases <= {"X", "i", "C", "M"}

    def test_complete_events_carry_microseconds(self, recorded):
        trace = {"traceEvents": list(iter_chrome_events(recorded))}
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        step = next(e for e in spans if e["name"] == "step.compute")
        assert step["ts"] == 0.0
        assert step["dur"] == pytest.approx(2.0 * 1e6)  # seconds -> us
        for e in spans:
            assert isinstance(e["ts"], float) and isinstance(e["dur"], float)
            assert math.isfinite(e["ts"]) and e["dur"] >= 0.0

    def test_pid_is_run_and_tid_is_device_plus_one(self, recorded):
        trace = {"traceEvents": list(iter_chrome_events(recorded))}
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
        trace = {"traceEvents": list(iter_chrome_events(recorded))}
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert "gpu0/updates" in names and "accuracy" in names
        upd = next(e for e in counters if e["name"] == "gpu0/updates")
        assert upd["args"] == {"value": 3.0}

    def test_metadata_names_processes_and_threads(self, recorded):
        trace = {"traceEvents": list(iter_chrome_events(recorded))}
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
        trace = {"traceEvents": list(iter_chrome_events(recorded))}
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
        assert loaded["otherData"] == {"label": "unit", "clock": CLOCK}

    def test_written_file_schema(self, recorded, tmp_path):
        """What Perfetto needs of the file: finite ``X`` spans, every
        ``(pid, tid)`` an event uses named by an ``M`` event, and nothing in
        ``otherData`` but the label and the clock."""
        trace = chrome_file(recorded, tmp_path / "t.trace.json")
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert set(trace["otherData"]) == {"label", "clock"}
        events = trace["traceEvents"]
        for e in events:
            if e["ph"] == "X":
                assert math.isfinite(e["ts"]) and e["dur"] >= 0.0
        used = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
        threads = {(e["pid"], e["tid"]) for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        processes = {e["pid"] for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"}
        assert used and used <= threads
        assert {pid for pid, _ in threads} == processes == {0, 1}

    def test_reading_the_export_back_names_the_archive(self, recorded,
                                                       tmp_path):
        path = write_chrome_trace(recorded, tmp_path / "rt.trace.json")
        with pytest.raises(DataFormatError, match=r"rt\.telemetry\.jsonl"):
            load_trace_data(path)


class TestChromeBlocks:
    """The writer encodes ``CHROME_BLOCK`` events at a time; the file must
    be the frozen one-shot ``json.dumps`` of the same events."""

    @pytest.mark.parametrize("n_events", [
        0, 2, CHROME_BLOCK - 1, CHROME_BLOCK, CHROME_BLOCK + 1,
        3 * CHROME_BLOCK,
    ])
    def test_file_is_the_oracle_event_for_event(self, tmp_path, n_events):
        tel = recorder_with(n_events)
        oracle = reference.to_chrome_trace(tel)
        assert len(oracle["traceEvents"]) == n_events
        path = write_chrome_trace(tel, tmp_path / "b.trace.json")
        assert json.loads(path.read_text())["traceEvents"] \
            == oracle["traceEvents"]
        oracle["otherData"] = {"label": "blocks", "clock": CLOCK}
        assert path.read_text() == json.dumps(oracle, allow_nan=False) + "\n"

    def test_recorded_run_is_the_oracle(self, recorded, tmp_path):
        oracle = reference.to_chrome_trace(recorded)
        trace = chrome_file(recorded, tmp_path / "r.trace.json")
        assert trace["traceEvents"] == oracle["traceEvents"]
        assert trace["otherData"] == {
            k: oracle["otherData"][k] for k in ("label", "clock")}

    def test_peak_memory_does_not_grow_with_events(self, tmp_path):
        """Eight times the events, about the same traced peak: one block
        of event dicts and its encoding, never the whole trace."""
        def writer_peak(tel):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                write_chrome_trace(tel, tmp_path / "m.trace.json")
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        small = writer_peak(recorder_with(4 * CHROME_BLOCK))
        large = writer_peak(recorder_with(32 * CHROME_BLOCK))
        assert large < 1.25 * small + 64 * 1024, (small, large)

    def test_an_event_that_fails_mid_stream_leaves_the_old_file(self,
                                                                tmp_path):
        tel = recorder_with(3 * CHROME_BLOCK)
        instants = tel.runs[0].instants
        instants[len(instants) // 2] = InstantEvent("bad", float("nan"), 0)
        path = tmp_path / "x.trace.json"
        path.write_text("previous")
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_chrome_trace(tel, path)
        assert path.read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["x.trace.json"]


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

    def test_write_jsonl_is_one_json_dumps_per_record(self, recorded,
                                                      tmp_path):
        path = write_jsonl(recorded, tmp_path / "events.jsonl")
        assert path.read_text() == "".join(
            json.dumps(record, allow_nan=False) + "\n"
            for record in iter_jsonl_records(recorded))


class TestRunBlocks:
    """The archive is run-major: the header declares each run block's
    length, the kernel rows come next, then one block per run."""

    def test_each_run_is_one_block_of_its_declared_length(self, recorded):
        recorded.kernels.add("spmm", 0.01, 9)
        header, *records = iter_jsonl_records(recorded)
        kinds = [r["type"] for r in records]
        first_run = kinds.index("run")
        assert kinds[:first_run] == ["kernel"]
        blocks, start = [], first_run
        for length in header["blocks"]:
            blocks.append(records[start:start + length])
            start += length
        assert start == len(records)
        for index, block in enumerate(blocks):
            assert block[0] == {"type": "run", "run": index,
                                **recorded.runs[index].meta}
            assert {r["run"] for r in block} == {index}
        assert [r["type"] for r in blocks[0]] \
            == ["run", "span", "instant", "counter", "counter"]


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
        chrome = chrome_file(tel, tmp_path / "deep.trace.json")
        (merge,) = (e for e in chrome["traceEvents"] if e["ph"] == "X")
        assert merge["args"]["stats"] == {"ratio": None, "sizes": [3, 4]}
        path = write_jsonl(tel, tmp_path / "deep.jsonl")
        span = next(
            json.loads(line) for line in path.read_text().splitlines()
            if json.loads(line)["type"] == "span"
        )
        assert span["args"]["stats"] == {"ratio": None, "sizes": [3, 4]}


class TestEmptyAndZeroSpanRuns:
    def test_empty_recorder_round_trips(self, tmp_path):
        tel = Telemetry(label="empty")
        assert list(iter_chrome_events(tel)) == []
        chrome = chrome_file(tel, tmp_path / "empty.trace.json")
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
        chrome = chrome_file(tel, tmp_path / "zero.trace.json")
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        # process metadata still names the empty run
        assert meta[0]["args"] == {"name": "noop (2 dev)"}


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
        live = load_trace_data(recorded)
        assert [s.name for r in live.runs for s in r.spans] == \
               [s.name for r in data.runs for s in r.spans]

    def test_jsonl_stream_carries_trace_label_header(self, recorded):
        first = next(iter_jsonl_records(recorded))
        assert first == {"type": "trace", "label": "unit", "blocks": [5, 2]}


class TestSummaryTable:
    def test_lists_spans_with_counts(self, recorded):
        out = render_telemetry_summary(recorded)
        assert "step.compute" in out and "merge" in out
        assert "2 run(s)" in out

    def test_empty_recorder_renders(self):
        out = render_telemetry_summary(Telemetry())
        assert "0 run(s)" in out
