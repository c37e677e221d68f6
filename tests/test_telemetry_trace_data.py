"""The streaming trace loader against the loader it replaced.

``tests/reference.py`` freezes the pre-streaming ``TraceData.from_jsonl`` /
``from_records``. Everything here is differential: the shipped loader must
accept the files the reference accepts, build the same ``TraceData`` field
for field, and reject the rest with the same ``path:lineno`` text. The
count tests at the bottom hold the "one load per archive per command" and
"one normalisation per grid" savings without a stopwatch.
"""

import dataclasses
import json
import math
import re
import shutil
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.exceptions import DataFormatError
from repro.registry import RunRegistry
from repro.telemetry import Telemetry, analyze_report, load_trace_data
from repro.telemetry.compare import compare_runs, diff_runs
from repro.telemetry.trace_data import TraceData
from repro.utils.serialization import jsonable
from tests import reference

ALGORITHMS = ["adaptive", "elastic", "tensorflow", "crossbow", "slide",
              "async", "minibatch"]


def canon(x):
    """``x`` with NaN made comparable and numbers tagged with their type,
    so ``==`` is field-for-field, NaN-aware and tells ``1`` from ``1.0``."""
    if isinstance(x, float) and x != x:
        return "NaN"
    if isinstance(x, (bool, int, float)):
        return (type(x).__name__, x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, {
            f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)
        })
    if isinstance(x, dict):
        return {k: canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(canon(v) for v in x)
    return x


def cli_json(payload) -> str:
    """The serialization every CLI ``--json`` flag prints."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def outcome(loader, path):
    """What loading ``path`` gives: the data, or the typed error's text."""
    try:
        return "ok", canon(loader(path))
    except DataFormatError as exc:
        return "error", str(exc)


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """A seven-algorithm grid (with its registry), a ``--tenants`` serve
    and a ``--churn spot-churn --autoscale`` serve, at smoke budgets."""
    root = tmp_path_factory.mktemp("archives")
    stem = str(root / "M")
    commands = [
        ["trace", "--dataset", "micro", "--time-budget-s", "0.003",
         "--gpus", "2", "--algorithms", *ALGORITHMS,
         "--out", str(root / "G"), "--registry", str(root / "R")],
        ["snapshot", stem, "--dataset", "micro", "--time-budget-s", "0.01",
         "--gpus", "2"],
        ["serve", stem, "--tenants", "--requests", "100",
         "--aggressor-factor", "20", "--max-queue-depth", "64",
         "--gpus", "2", "--out", str(root / "T")],
        ["serve", stem, "--mode", "adaptive", "--churn", "spot-churn",
         "--autoscale", "--requests", "1000", "--gpus", "2",
         "--out", str(root / "C")],
    ]
    for argv in commands:
        assert main(argv) == 0
    return SimpleNamespace(
        root=root,
        registry=root / "R",
        grid=root / "G.telemetry.jsonl",
        tenants=root / "T.telemetry.jsonl",
        churn=root / "C.telemetry.jsonl",
    )


# -- (a) real archives ----------------------------------------------------------
class TestRealArchives:
    @pytest.mark.parametrize("name, n_runs", [
        ("grid", 7), ("tenants", 2), ("churn", 1),
    ])
    def test_same_data_and_same_json_as_the_reference(self, archives, name,
                                                      n_runs):
        path = getattr(archives, name)
        shipped = TraceData.from_jsonl(path)
        frozen = reference.trace_from_jsonl(path)
        assert len(shipped.runs) == n_runs
        assert canon(shipped) == canon(frozen)
        assert cli_json(analyze_report(path)) \
            == cli_json(analyze_report(frozen))
        last = n_runs - 1
        assert cli_json(jsonable(diff_runs(path, path, run_b=last))) \
            == cli_json(jsonable(diff_runs(frozen, frozen, run_b=last)))

    def test_live_recorder_and_archive_build_the_same_data(self, tmp_path):
        """``from_telemetry`` and ``from_jsonl`` share one builder."""
        from repro.harness.experiment import ExperimentSpec, run_experiment
        from repro.telemetry.export import write_jsonl

        tel = Telemetry(label="parity")
        run_experiment(ExperimentSpec(
            dataset="micro", algorithms=("adaptive",), gpu_counts=(2,),
            time_budget_s=0.003, eval_samples=64,
        ), telemetry=tel)
        path = write_jsonl(tel, tmp_path / "parity.jsonl")
        assert canon(TraceData.from_jsonl(path)) \
            == canon(TraceData.from_telemetry(tel))

    def test_unusual_suffix_is_sniffed_not_assumed(self, archives, tmp_path):
        jsonl = tmp_path / "G.log"
        shutil.copy(archives.grid, jsonl)
        assert canon(load_trace_data(jsonl)) \
            == canon(reference.trace_from_jsonl(jsonl))
        chrome = tmp_path / "G.txt"
        shutil.copy(archives.root / "G.trace.json", chrome)
        assert canon(load_trace_data(chrome)) \
            == canon(load_trace_data(archives.root / "G.trace.json"))
        jsonl.write_text(jsonl.read_text()[:-9])
        with pytest.raises(DataFormatError, match=r"G\.log:\d+: invalid"):
            load_trace_data(jsonl)

    def test_compare_runs_only_reads(self, archives):
        """Why ``diff_runs`` may hand it two runs of one ``TraceData``."""
        data = TraceData.from_jsonl(archives.grid)
        before = canon(data)
        compare_runs(data.run(0), data.run(1))
        compare_runs(data.run(2), data.run(2))
        assert canon(data) == before


# -- (b) the table of file shapes ---------------------------------------------
RECORDS = [
    {"type": "trace", "label": "shapes"},
    {"type": "run", "run": 0, "algorithm": "adaptive", "n_devices": 2},
    {"type": "span", "name": "run", "run": 0, "device": None, "ts": 0.0,
     "dur": 1.5, "args": {}},
    {"type": "span", "name": "step", "run": 0, "device": 1, "ts": 0.25,
     "dur": 0.5, "args": {"batch": 3, "why": "caf\u00e9 \u2028"}},
    {"type": "instant", "name": "merge", "run": 0, "device": None,
     "ts": 0.75, "args": {"k": [1, 2]}},
    {"type": "counter", "run": 0, "name": "gpu1/updates", "ts": 0.5,
     "value": 3},
    {"type": "counter", "run": 1, "name": "accuracy", "ts": None,
     "value": None},
    {"type": "idle", "run": 0, "device": 1, "busy_s": 0.5, "idle_s": 1.0},
    {"type": "kernel", "kernel": "spmm", "calls": 3, "host_s": 0.01,
     "units": 9},
    {"type": "from-the-future", "run": 0, "x": 1},
]
LINES = [json.dumps(r) for r in RECORDS]
CLEAN = "\n".join(LINES) + "\n"


def _with_line(index, text):
    lines = list(LINES)
    lines[index] = text
    return "\n".join(lines) + "\n"


#: name -> (file text, the line the error must name, or None if it loads)
SHAPES = {
    "clean": (CLEAN, None),
    "truncated tail": (CLEAN[:-20], len(LINES)),
    "garbled middle": (_with_line(3, '{"type": "span", "name": '), 4),
    "garbled middle, CRLF": (
        _with_line(3, "{oops").replace("\n", "\r\n"), 4),
    "two records on one line": (_with_line(2, LINES[2] + " " + LINES[3]), 3),
    "two records abutting": (_with_line(2, LINES[2] + LINES[3]), 3),
    "one record over two lines": (
        _with_line(3, LINES[3].replace(', "run"', ',\n"run"')), 4),
    "CRLF": (CLEAN.replace("\n", "\r\n"), None),
    "CR only": (CLEAN.replace("\n", "\r"), None),
    "no final newline": (CLEAN[:-1], None),
    "blank and indented lines": (
        "\n\n  " + "  \n\t\n \t".join(LINES) + " \n\n", None),
    "error after blank lines": ("\n\n" + LINES[0] + "\n\n{bad\n", 5),
    "empty file": ("", None),
    "whitespace only": (" \n\t\n\n", None),
    "byte-order mark": ("\ufeff" + CLEAN, 1),
    "bare NaN and Infinity": (
        CLEAN + '{"type": "counter", "run": 0, "name": "a", "ts": NaN, '
                '"value": -Infinity}\n', None),
    "unterminated array after the records": (CLEAN + "[1, 2\n", len(LINES) + 1),
}


class TestFileShapes:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_same_data_or_same_error_as_the_reference(self, tmp_path, shape):
        text, error_line = SHAPES[shape]
        path = tmp_path / "shape.jsonl"
        path.write_bytes(text.encode("utf-8"))
        shipped = outcome(TraceData.from_jsonl, path)
        assert shipped == outcome(reference.trace_from_jsonl, path)
        if error_line is None:
            assert shipped[0] == "ok"
        else:
            assert shipped[1].startswith(
                f"{path}:{error_line}: invalid JSONL record: "
            )

    def test_what_the_clean_file_holds(self, tmp_path):
        path = tmp_path / "shapes.jsonl"
        path.write_text(CLEAN)
        data = TraceData.from_jsonl(path)
        assert data.label == "shapes" and len(data.runs) == 2
        run = data.run(0)
        assert [s.name for s in run.spans] == ["run", "step"]
        assert run.spans[1].device == 1 and run.spans[0].device is None
        assert run.spans[1].args["why"] == "caf\u00e9 \u2028"
        assert run.samples == {"gpu1/updates": [(0.5, 3.0)]}
        assert run.idle == {1: {"busy_s": 0.5, "idle_s": 1.0}}
        # null ts / value -> NaN; the unknown record type is skipped.
        ((ts, value),) = data.run(1).samples["accuracy"]
        assert math.isnan(ts) and math.isnan(value)
        assert data.kernels == [
            {"kernel": "spmm", "calls": 3, "host_s": 0.01, "units": 9}
        ]

    def test_empty_file_is_a_zero_run_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert TraceData.from_jsonl(path).runs == []


#: The eight separators ``str.splitlines`` honours beyond ``\n \r\n \r``.
#: ``write_jsonl`` (``ensure_ascii``) never emits one; the reference split
#: on them, the streaming loader (which iterates the file) does not.
OTHER_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                    "\u2028", "\u2029"]


class TestOtherLineSeparators:
    """Every way the two loaders differ, pinned. All need a byte that
    ``write_jsonl`` cannot produce."""

    @pytest.mark.parametrize("sep", OTHER_SEPARATORS)
    def test_between_two_records_is_now_one_bad_line(self, tmp_path, sep):
        path = tmp_path / "sep.jsonl"
        path.write_text(LINES[2] + sep + LINES[3] + "\n", encoding="utf-8")
        assert len(reference.trace_from_jsonl(path).run(0).spans) == 2
        with pytest.raises(DataFormatError, match=r"sep\.jsonl:1: invalid"):
            TraceData.from_jsonl(path)

    @pytest.mark.parametrize("sep", OTHER_SEPARATORS)
    def test_trailing_one_no_longer_counts_as_a_line(self, tmp_path, sep):
        path = tmp_path / "sep.jsonl"
        path.write_text(LINES[2] + sep + "\n{bad\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"sep\.jsonl:3: invalid"):
            reference.trace_from_jsonl(path)
        with pytest.raises(DataFormatError, match=r"sep\.jsonl:2: invalid"):
            TraceData.from_jsonl(path)
        path.write_text(LINES[2] + sep + "\n", encoding="utf-8")
        assert canon(TraceData.from_jsonl(path)) \
            == canon(reference.trace_from_jsonl(path))

    @pytest.mark.parametrize("sep", OTHER_SEPARATORS)
    def test_inside_a_string(self, tmp_path, sep):
        """Raw (unescaped) in a string value: the reference saw two garbled
        halves. JSON forbids raw control characters, so those stay an error
        on the same line (with the parser's message for the whole line);
        NEL, U+2028 and U+2029 are legal in a string and now load."""
        path = tmp_path / "sep.jsonl"
        line = LINES[0].replace("shapes", "sha" + sep + "pes")
        path.write_text(LINES[1] + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"sep\.jsonl:2: invalid"):
            reference.trace_from_jsonl(path)
        if sep < " ":
            with pytest.raises(DataFormatError,
                               match=r"sep\.jsonl:2: invalid JSONL record: "
                                     r"Invalid control character"):
                TraceData.from_jsonl(path)
        else:
            assert TraceData.from_jsonl(path).label == "sha" + sep + "pes"


# -- (c) random archives ---------------------------------------------------------
_number = st.one_of(
    st.none(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)
_leaf = st.one_of(_number, st.booleans(), st.text(max_size=6))
_args = st.one_of(st.none(), st.dictionaries(st.text(max_size=4), _leaf,
                                             max_size=3))
_run = st.integers(0, 3)
_device = st.one_of(st.none(), st.integers(0, 7))
_name = st.text(max_size=8)
_record = st.one_of(
    st.fixed_dictionaries({"type": st.just("trace"), "label": _name}),
    st.fixed_dictionaries(
        {"type": st.just("run"), "run": _run},
        optional={"algorithm": _name, "n_devices": st.integers(1, 8)}),
    st.fixed_dictionaries(
        {"type": st.just("span"), "name": _name, "run": _run},
        optional={"device": _device, "ts": _number, "dur": _number,
                  "args": _args}),
    st.fixed_dictionaries(
        {"type": st.just("instant"), "name": _name, "run": _run},
        optional={"device": _device, "ts": _number, "args": _args}),
    st.fixed_dictionaries(
        {"type": st.just("counter"), "name": _name, "run": _run},
        optional={"ts": _number, "value": _number}),
    st.fixed_dictionaries(
        {"type": st.just("idle"), "run": _run, "device": st.integers(0, 7)},
        optional={"busy_s": _number, "idle_s": _number}),
    st.fixed_dictionaries(
        {"type": st.just("kernel"), "kernel": _name, "calls": _number}),
    # An unknown kind is skipped; drawing a known one here (hypothesis splices
    # "idle" in from above) would make a malformed record, not an unknown one.
    st.fixed_dictionaries({
        "type": _name.filter(lambda kind: kind not in (
            "trace", "run", "span", "instant", "counter", "idle", "kernel")),
        "run": _run,
    }),
)
_pad = st.text(alphabet=" \t", max_size=3)
_newline = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \t\n"])
_line = st.tuples(_pad, _record, _pad, _newline)


class TestRandomArchives:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_line, max_size=12), final_newline=st.booleans())
    def test_both_loaders_agree(self, tmp_path, lines, final_newline):
        text = "".join(
            left + json.dumps(record) + right + newline
            for left, record, right, newline in lines
        )
        if not final_newline:
            text = text.rstrip("\r\n")
        path = tmp_path / "random.jsonl"
        path.write_bytes(text.encode("ascii"))
        shipped = TraceData.from_jsonl(path)
        assert canon(shipped) == canon(reference.trace_from_jsonl(path))
        records = [record for _, record, _, _ in lines]
        assert canon(TraceData.from_records(records, label="random")) \
            == canon(reference.trace_from_records(records, label="random"))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_line, max_size=12), final_newline=st.booleans(),
           runs=st.sets(st.integers(0, 4)))
    def test_a_selective_load_builds_what_the_full_load_does(
            self, tmp_path, lines, final_newline, runs):
        text = "".join(
            left + json.dumps(record) + right + newline
            for left, record, right, newline in lines
        )
        if not final_newline:
            text = text.rstrip("\r\n")
        path = tmp_path / "random.jsonl"
        path.write_bytes(text.encode("ascii"))
        full = reference.trace_from_jsonl(path)
        some = TraceData.from_jsonl(path, runs=runs)
        assert (some.label, canon(some.kernels), len(some.runs)) \
            == (full.label, canon(full.kernels), len(full.runs))
        for index in range(len(full.runs)):
            if index in runs:
                assert canon(some.run(index)) == canon(full.run(index))
            else:
                with pytest.raises(LookupError, match="was not loaded"):
                    some.run(index)


# -- (d) selective loads ---------------------------------------------------------
class TestSelectiveLoad:
    """``from_jsonl(path, runs=...)`` against the full load of the same file."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        """The lines the C scanner was handed."""
        from repro.telemetry import trace_data

        lines = []
        original = trace_data._scan_once

        def counting(line, index):
            lines.append(line)
            return original(line, index)

        monkeypatch.setattr(trace_data, "_scan_once", counting)
        return lines

    @pytest.mark.parametrize("name", ["grid", "tenants", "churn"])
    def test_every_record_kind_of_another_run_skips_the_scan(
            self, archives, scans, name):
        path = getattr(archives, name)
        with path.open() as fh:
            lines = list(fh)
        records = [json.loads(line) for line in lines]
        assert {r["type"] for r in records} == {
            "trace", "run", "span", "instant", "counter", "idle", "kernel"}
        full = reference.trace_from_jsonl(path)
        some = TraceData.from_jsonl(path, runs={0})
        assert canon(some.run(0)) == canon(full.run(0))
        assert len(some.runs) == len(full.runs)
        assert scans == [line for line, record in zip(lines, records)
                         if record.get("run", 0) == 0]

    def test_lines_off_the_prefix_are_parsed_into_the_right_run(
            self, tmp_path, scans):
        """Reordered keys, an escaped name, a run index that is not an
        integer literal (``2e-1`` builds run 0) and a last line without its
        newline all miss the prefix; the parsed ``run`` still decides."""
        lines = [
            json.dumps({"type": "span", "name": "a", "run": 0, "ts": 0.0,
                        "dur": 1.0}),
            json.dumps({"run": 1, "type": "span", "name": "reordered",
                        "ts": 0.5, "dur": 1.0}),
            json.dumps({"type": "instant", "name": 'say "hi"', "run": 1,
                        "ts": 0.25}),
            '{"type": "instant", "name": "float", "run": 2e-1, "ts": 0.5}',
            json.dumps({"type": "counter", "run": 1, "name": "tail",
                        "ts": 1.0, "value": 2}),
        ]
        path = tmp_path / "off.jsonl"
        path.write_text("\n".join(lines))
        full = reference.trace_from_jsonl(path)
        for index, scanned in ((0, lines), (1, lines[1:])):
            scans.clear()
            some = TraceData.from_jsonl(path, runs={index})
            assert canon(some.run(index)) == canon(full.run(index))
            assert [line.rstrip("\n") for line in scans] == scanned
        assert [i.name for i in full.run(0).instants] == ["float"]
        assert [s.name for s in full.run(1).spans] == ["reordered"]
        assert [i.name for i in full.run(1).instants] == ['say "hi"']
        assert list(full.run(1).samples) == ["tail"]

    def test_an_unbuilt_run_is_refused_not_empty(self, archives):
        from repro.telemetry.trace_data import RunData

        some = TraceData.from_jsonl(archives.grid, runs={2})
        assert len(some.runs) == len(ALGORITHMS)
        assert all(type(run) is RunData for run in some.runs)
        assert some.run(2).spans
        for index in (0, 1, 3, -1):
            with pytest.raises(LookupError, match="was not loaded"):
                some.run(index)

    def test_out_of_range_text_is_unchanged(self, archives):
        full = TraceData.from_jsonl(archives.grid)
        want = f"trace {full.label!r} has 7 run(s); no run 9"
        for runs in (None, {9}, {0, 9}):
            with pytest.raises(DataFormatError) as info:
                TraceData.from_jsonl(archives.grid, runs=runs).run(9)
            assert str(info.value) == want

    def test_a_negative_index_loads_every_run(self, archives):
        some = TraceData.from_jsonl(archives.grid, runs={-1})
        assert some.built is None
        assert canon(some) == canon(reference.trace_from_jsonl(archives.grid))

    @pytest.mark.parametrize("reordered", [False, True])
    def test_a_malformed_record_fails_only_a_command_that_reads_its_run(
            self, archives, tmp_path, capsys, reordered):
        """The one deliberate change: run ``k``'s bad record no longer
        fails ``analyze --run j``, whose output is the clean archive's,
        whether its line takes the prefix shortcut or is parsed first."""
        j, k = 1, 4
        with archives.grid.open() as fh:
            lines = list(fh)
        lineno = next(n for n, line in enumerate(lines, start=1)
                      if line.startswith('{"type": "span", "name": "step')
                      and f'"run": {k},' in line)
        record = json.loads(lines[lineno - 1])
        record["ts"] = "oops"
        if reordered:
            record = {"run": record.pop("run"), **record}
        lines[lineno - 1] = json.dumps(record) + "\n"
        bad = tmp_path / "G.telemetry.jsonl"
        bad.write_text("".join(lines))

        def analyze(path, *extra):
            capsys.readouterr()
            code = main(["analyze", str(path), *extra])
            out, err = capsys.readouterr()
            return code, out, err

        for extra in ([], ["--json"]):
            clean = analyze(archives.grid, "--run", str(j), *extra)
            assert clean[0] == 0
            assert analyze(bad, "--run", str(j), *extra) == clean
        for extra in ([], ["--run", str(k)]):
            code, out, err = analyze(bad, *extra)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {bad}:{lineno}: malformed 'span' "
                                  f"record: ValueError")


# -- well-formed JSON that is not a record --------------------------------------
NOT_RECORDS = {
    "a scalar": "3",
    "a span without run": '{"type":"span"}',
    "a run that is no index": '{"type":"span","run":"x","name":"a"}',
    "a timestamp that is no number":
        '{"type":"counter","run":0,"name":"a","ts":"oops","value":1}',
}


class TestNotARecord:
    @pytest.mark.parametrize("case", sorted(NOT_RECORDS))
    def test_cli_reports_the_line_and_writes_nothing(self, tmp_path, capsys,
                                                     case):
        """Each was an ``AttributeError`` / ``KeyError`` / ``ValueError``
        traceback past the CLI's ``except ReproError``."""
        bad = tmp_path / "bad.jsonl"
        bad.write_text(NOT_RECORDS[case] + "\n")
        prom = tmp_path / "out.prom"
        capsys.readouterr()
        assert main(["analyze", str(bad), "--promtext", str(prom)]) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and "bad.jsonl:1: malformed" in line
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]

    def test_the_line_is_the_bad_one(self, tmp_path):
        path = tmp_path / "late.jsonl"
        path.write_text(CLEAN + "\n" + NOT_RECORDS["a span without run"])
        with pytest.raises(DataFormatError) as info:
            TraceData.from_jsonl(path)
        assert str(info.value).startswith(
            f"{path}:{len(LINES) + 2}: malformed 'span' record: KeyError"
        )

    def test_from_records_names_the_ordinal(self):
        records = [RECORDS[0], RECORDS[2], {"type": "idle", "run": 0}]
        with pytest.raises(DataFormatError,
                           match=r"^record 3: malformed 'idle' record"):
            TraceData.from_records(records)
        with pytest.raises(DataFormatError,
                           match=r"^record 1: malformed 'int' record"):
            TraceData.from_records([3])


# -- counts that hold the win ----------------------------------------------------
@pytest.fixture()
def jsonl_loads(monkeypatch):
    """``(path, runs)`` of every ``TraceData.from_jsonl`` call."""
    calls = []
    original = TraceData.from_jsonl.__func__

    def counting(cls, path, *args, **kwargs):
        calls.append((str(path), kwargs.get("runs")))
        return original(cls, path, *args, **kwargs)

    monkeypatch.setattr(TraceData, "from_jsonl", classmethod(counting))
    return calls


def grid_ids(registry_root):
    """The grid's registry run ids, in trace run order."""
    registry = RunRegistry(registry_root, create=False)
    by_index = {r.manifest["trace_run_index"]: r.run_id
                for r in registry.list(kind="train")}
    assert sorted(by_index) == list(range(len(ALGORITHMS)))
    return [by_index[i] for i in sorted(by_index)]


class TestOneLoadPerArchive:
    """The three "once" tests fail if ``diff_runs`` goes back to two
    unconditional ``load_trace_data`` calls; the directory one also fails
    if the reuse compares the arguments instead of the resolved files; the
    "twice" and in-memory ones fail if it reuses more than one file. Each
    also names the runs the load builds: only the ones the command reads."""

    def test_compare_of_one_archive_loads_it_once(self, archives, capsys,
                                                  jsonl_loads):
        grid = str(archives.grid)
        assert main(["compare", grid, grid, "--run-a", "0", "--run-b", "1",
                     "--json"]) == 0
        assert jsonl_loads == [(grid, {0, 1})]
        out = json.loads(capsys.readouterr().out)
        assert out["baseline"] != out["candidate"]

    def test_runs_diff_of_grid_siblings_loads_once(self, archives, capsys,
                                                   jsonl_loads):
        ids = grid_ids(archives.registry)
        assert main(["runs", "diff", ids[2], ids[5], "--json",
                     "--registry", str(archives.registry)]) == 0
        assert [runs for _, runs in jsonl_loads] == [{2, 5}]
        out = json.loads(capsys.readouterr().out)
        assert out["baseline"] != out["candidate"]

    def test_two_distinct_files_load_twice(self, archives, jsonl_loads):
        assert main(["compare", str(archives.grid), str(archives.tenants),
                     "--run-a", "3", "--json"]) == 0
        assert jsonl_loads == [(str(archives.grid), {3}),
                               (str(archives.tenants), {0})]

    def test_directory_and_its_archive_are_one_file(self, archives, tmp_path,
                                                    jsonl_loads):
        shutil.copy(archives.grid, tmp_path / "telemetry.jsonl")
        assert main(["compare", str(tmp_path),
                     str(tmp_path / "telemetry.jsonl"), "--run-b", "1",
                     "--json"]) == 0
        assert [runs for _, runs in jsonl_loads] == [{0, 1}]

    def test_analyze_builds_the_runs_it_reports(self, archives, capsys,
                                                jsonl_loads):
        grid, registry = str(archives.grid), str(archives.registry)
        for argv in (["analyze", grid, "--json"],
                     ["analyze", grid, "--run", "4", "--json"],
                     ["analyze", grid_ids(archives.registry)[6], "--json",
                      "--registry", registry]):
            assert main(argv) == 0
        assert [runs for _, runs in jsonl_loads] == [None, {4}, {6}]

    def test_in_memory_sources_are_never_deduplicated(self, archives):
        data = TraceData.from_jsonl(archives.grid)
        other = TraceData.from_jsonl(archives.tenants)
        cmp = diff_runs(data, other)
        assert cmp.baseline == data.run(0).label()
        assert cmp.candidate == other.run(0).label()
        assert cmp.baseline != cmp.candidate


class TestPromtextCoversTheAnalysedRuns:
    """``--promtext`` exports the runs the analysis read: one grid run's
    registry id used to label all seven runs' samples."""

    @staticmethod
    def exported_runs(path):
        return set(re.findall(r'[{,]run="(\d+)"', path.read_text()))

    def test_a_registry_run_id_exports_its_run_only(self, archives, tmp_path,
                                                    capsys):
        run_id = grid_ids(archives.registry)[2]
        prom = tmp_path / "one.prom"
        assert main(["analyze", run_id, "--registry", str(archives.registry),
                     "--promtext", str(prom)]) == 0
        assert self.exported_runs(prom) == {"2"}
        samples = [line for line in prom.read_text().splitlines()
                   if not line.startswith("#")]
        assert samples and all(f'run_id="{run_id}"' in s for s in samples)

    def test_run_selects_and_no_run_exports_every_run(self, archives,
                                                      tmp_path, capsys):
        prom = tmp_path / "grid.prom"
        grid = str(archives.grid)
        assert main(["analyze", grid, "--run", "5", "--promtext",
                     str(prom)]) == 0
        assert self.exported_runs(prom) == {"5"}
        assert main(["analyze", grid, "--promtext", str(prom)]) == 0
        assert self.exported_runs(prom) == {str(i) for i in range(7)}


class TestOneNormalisationPerGrid:
    def test_record_experiment_iterates_the_recorder_at_most_twice(
            self, tmp_path, monkeypatch):
        """Archive write + one normalisation, whatever the grid size. Fails
        (with 8) if ``record_experiment`` goes back to letting every
        ``record_train_run`` call normalise the shared recorder itself."""
        from repro.harness.experiment import ExperimentSpec, run_experiment
        from repro.registry.record import record_experiment
        from repro.telemetry import export

        tel = Telemetry(label="grid")
        spec = ExperimentSpec(
            dataset="micro", algorithms=tuple(ALGORITHMS), gpu_counts=(2,),
            time_budget_s=0.003, eval_samples=64,
        )
        results = run_experiment(spec, telemetry=tel)
        assert len(tel.runs) == len(ALGORITHMS)

        passes = []
        original = export.iter_jsonl_records

        def counting(recorder):
            passes.append(recorder)
            return original(recorder)

        monkeypatch.setattr(export, "iter_jsonl_records", counting)
        registry = RunRegistry(tmp_path / "reg")
        run_ids = record_experiment(registry, results, spec=spec,
                                    telemetry=tel)
        assert len(run_ids) == len(ALGORITHMS)
        assert 1 <= len(passes) <= 2
        # Every sibling still got its own run's headline metrics.
        durations = {
            registry.get(run_id).metrics["span/run_s"] for run_id in run_ids
        }
        assert len(durations) > 1
