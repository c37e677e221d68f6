"""The streaming trace loader against the loader it replaced, and a live
recorder against its own archive.

``tests/reference.py`` freezes the pre-streaming ``TraceData.from_jsonl`` /
``from_records``. Everything here is differential: the shipped loader must
accept the files the reference accepts, build the same ``TraceData`` field
for field, and reject the rest with the same ``path:lineno`` text; a
recorder must analyse as its archive does. The count tests at the bottom
hold the "one load per archive per command" and "no event pass to analyse a
recorder" savings without a stopwatch.
"""

import dataclasses
import json
import math
import re
import shutil
import tracemalloc
from pathlib import Path, PurePosixPath
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.exceptions import DataFormatError
from repro.registry import RunRegistry
from repro.sim.environment import Environment
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
    with sheds, a ``--churn spot-churn --autoscale`` serve and a serve of a
    store with a committed swap, at smoke budgets; ``recorders`` maps each
    serve archive's name to the live recorder that wrote it."""
    from repro.telemetry import core

    root = tmp_path_factory.mktemp("archives")
    stem = str(root / "M")
    commands = [
        ["trace", "--dataset", "micro", "--time-budget-s", "0.003",
         "--gpus", "2", "--algorithms", *ALGORITHMS,
         "--out", str(root / "G"), "--registry", str(root / "R")],
        ["snapshot", stem, "--dataset", "micro", "--time-budget-s", "0.01",
         "--gpus", "2"],
        ["serve", stem, "--tenants", "--requests", "100",
         "--aggressor-factor", "20", "--max-queue-depth", "16",
         "--gpus", "2", "--out", str(root / "T")],
        ["serve", stem, "--mode", "adaptive", "--churn", "spot-churn",
         "--autoscale", "--requests", "1000", "--gpus", "2",
         "--out", str(root / "C")],
        ["train", "--dataset", "micro", "--time-budget-s", "0.03",
         "--gpus", "2", "--store", str(root / "S"),
         "--publish-every-s", "0.01"],
        ["serve", str(root / "S"), "--requests", "400", "--gpus", "2",
         "--out", str(root / "W")],
    ]
    recorders = []

    class Kept(core.Telemetry):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            recorders.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "Telemetry", Kept)
        for argv in commands:
            assert main(argv) == 0
    return SimpleNamespace(
        root=root,
        registry=root / "R",
        grid=root / "G.telemetry.jsonl",
        tenants=root / "T.telemetry.jsonl",
        churn=root / "C.telemetry.jsonl",
        store=root / "W.telemetry.jsonl",
        recorders=dict(zip(["grid", "tenants", "churn", "store"],
                           recorders, strict=True)),
    )


# -- (a) real archives ----------------------------------------------------------
class TestRealArchives:
    @pytest.mark.parametrize("name, n_runs", [
        ("grid", 7), ("tenants", 2), ("churn", 1), ("store", 2),
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
        """The recorder's runs are what its archive loads back into."""
        from repro.harness.experiment import ExperimentSpec, run_experiment
        from repro.telemetry.export import write_jsonl

        tel = Telemetry(label="parity")
        run_experiment(ExperimentSpec(
            dataset="micro", algorithms=("adaptive",), gpu_counts=(2,),
            time_budget_s=0.003, eval_samples=64,
        ), telemetry=tel)
        path = write_jsonl(tel, tmp_path / "parity.jsonl")
        assert canon(TraceData.from_jsonl(path)) \
            == canon(load_trace_data(tel))

    def test_unusual_suffix_is_read_as_jsonl(self, archives, tmp_path):
        jsonl = tmp_path / "G.log"
        shutil.copy(archives.grid, jsonl)
        assert canon(load_trace_data(jsonl)) \
            == canon(reference.trace_from_jsonl(jsonl))
        # A Chrome trace under another name is one record without a type.
        chrome = tmp_path / "G.txt"
        shutil.copy(archives.root / "G.trace.json", chrome)
        with pytest.raises(DataFormatError, match=r"G\.txt:1: malformed "
                                                  r"'dict' record: TypeError"):
            load_trace_data(chrome)
        jsonl.write_text(jsonl.read_text()[:-9])
        with pytest.raises(DataFormatError, match=r"G\.log:\d+: invalid"):
            load_trace_data(jsonl)

    def test_a_byte_that_is_not_utf8_names_its_line(self, archives, tmp_path,
                                                     capsys):
        """Was a ``UnicodeDecodeError`` traceback from the text decoder, in
        a full load and a one-run load alike."""
        data = bytearray(archives.grid.read_bytes())
        pos = len(data) // 2
        data[pos] = 0xff
        lineno = data.count(b"\n", 0, pos) + 1
        bad = tmp_path / "G.telemetry.jsonl"
        bad.write_bytes(bytes(data))
        capsys.readouterr()
        for extra in ([], ["--json"], ["--run", "1"]):
            assert main(["analyze", str(bad), *extra]) == 1
            assert capsys.readouterr() == (
                "", f"error: {bad}:{lineno}: byte 0xff is not UTF-8 text\n")

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
    # What archives written before idle was derived still carry: skipped.
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
        # null ts / value -> NaN; the old ``idle`` and the unknown record
        # types are skipped.
        without = tmp_path / "shapes-without-idle.jsonl"
        without.write_text("".join(line + "\n" for record, line
                                   in zip(RECORDS, LINES)
                                   if record["type"] != "idle"))
        assert canon(data) == canon(TraceData.from_jsonl(without))
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
        {"type": st.just("kernel"), "kernel": _name, "calls": _number}),
    # An unknown kind is skipped; drawing a known one here (hypothesis splices
    # kinds in from above) would make a malformed record, not an unknown one.
    # ``idle`` (archives before derived idle) is one of the unknown.
    st.fixed_dictionaries({
        "type": st.one_of(st.just("idle"), _name.filter(
            lambda kind: kind not in (
                "trace", "run", "span", "instant", "counter", "kernel"))),
        "run": _run,
    }, optional={"device": st.integers(0, 7), "idle_s": _number}),
)
_pad = st.text(alphabet=" \t", max_size=3)
_newline = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \t\n"])
_line = st.tuples(_pad, _record, _pad, _newline)


def run_past_its_line(path):
    """The first line of ``path`` whose record names a run index above its
    own line number, or ``None``. An archive without declared run blocks
    may not hold one: the reference built every run up to the index (a
    64-byte line naming run 300000 took 3 s and 111 MiB)."""
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            record = json.loads(line) if line.strip() else {}
            if record.get("type") in ("run", "span", "instant", "counter") \
                    and record["run"] > lineno:
                return lineno
    return None


def assert_loads_as(path, expected, runs=None):
    """``from_jsonl(path, runs=runs)`` raises on the line
    :func:`run_past_its_line` names, or else returns what ``expected()``
    builds (checked by the caller when ``expected`` is ``None``)."""
    line = run_past_its_line(path)
    if line is not None:
        with pytest.raises(DataFormatError, match=(
                rf"^{re.escape(str(path))}:{line}: malformed .* is past")):
            TraceData.from_jsonl(path, runs=runs)
        return None
    loaded = TraceData.from_jsonl(path, runs=runs)
    if expected is not None:
        assert canon(loaded) == canon(expected())
    return loaded


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
        assert_loads_as(path, lambda: reference.trace_from_jsonl(path))
        # The same records one to a line, as ``write_jsonl`` writes them.
        records = [record for _, record, _, _ in lines]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert_loads_as(path, lambda: reference.trace_from_records(
            records, label="random"))

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
        some = assert_loads_as(path, None, runs=runs)
        if some is None:
            return
        assert (some.label, canon(some.kernels), len(some.runs)) \
            == (full.label, canon(full.kernels), len(full.runs))
        for index in range(len(full.runs)):
            if index in runs:
                assert canon(some.run(index)) == canon(full.run(index))
            else:
                with pytest.raises(LookupError, match="was not loaded"):
                    some.run(index)


# -- (c') a recorder is what its archive loads back ------------------------------
_float = st.floats()  # NaN and +-inf included
_arg_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), _float,
    st.text(max_size=4),
    st.booleans().map(np.bool_),
    st.integers(-10**6, 10**6).map(np.int64),
    _float.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.text(alphabet="ab/", max_size=4).map(PurePosixPath),
)
_arg = st.recursive(_arg_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=3), inner, max_size=3),
), max_leaves=6)
_kwargs = st.dictionaries(st.sampled_from(["size", "loss", "why", "k"]),
                          _arg, max_size=3)
_t = st.floats(0.0, 10.0)
_dev = st.one_of(st.none(), st.integers(0, 3))
_event = st.one_of(
    st.tuples(st.just("span"), st.sampled_from(
        ["run", "step.compute", "merge", "transfer.model"]),
        _dev, _t, _t, _kwargs),
    st.tuples(st.just("instant"), st.sampled_from(
        ["checkpoint", "batch.dispatch"]), _dev, _t.map(np.float64), _kwargs),
    st.tuples(st.just("gauge"), st.sampled_from(
        ["loss", "accuracy", "batch_size", "lr"]), _dev, _float),
    st.tuples(st.just("counter"), st.sampled_from(["updates", "shed"]),
              _dev, _float, _t),
)
_meta = st.fixed_dictionaries({
    "algorithm": st.sampled_from(["adaptive", "elastic"]),
    "n_devices": st.integers(1, 4).map(np.int64),
    "shape": st.tuples(st.integers(0, 9), st.integers(0, 9)),
    "source": st.just(PurePosixPath("data/x.libsvm")),
    "budget": _float,
})


def record(tel, runs):
    """Drive ``tel`` through its public record calls, one run per entry."""
    for meta, events in runs:
        tel.attach(Environment(), **meta)
        for kind, name, device, *rest in events:
            if kind == "span":
                ts, dur, args = rest
                tel.record_span(name, ts, dur, device=device, **args)
            elif kind == "instant":
                ts, args = rest
                tel.instant(name, device=device, ts=ts, **args)
            elif kind == "gauge":
                tel.gauge(name, rest[0], device=device)
            else:
                inc, ts = rest
                tel.counter(name, inc, ts=ts, device=device)
        tel.detach()


class TestRecorderIsItsArchive:
    """``load_trace_data(tel)`` wraps the recorder's runs as they stand;
    they must be what ``from_jsonl`` builds from its archive, field for
    field and type for type, and analyse to the same JSON. Fails if the
    recorder keeps an arg, a metadata value or a time as it was given."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(runs=st.lists(st.tuples(_meta, st.lists(_event, max_size=10)),
                         min_size=1, max_size=2))
    def test_live_view_equals_the_archive(self, tmp_path, runs):
        from repro.telemetry.export import write_jsonl

        tel = Telemetry(label="live")
        record(tel, runs)
        archive = TraceData.from_jsonl(write_jsonl(tel, tmp_path / "a.jsonl"))
        live = load_trace_data(tel)
        assert canon(live) == canon(archive)
        assert cli_json(analyze_report(tel)) == cli_json(analyze_report(archive))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(
        _t, _t, st.integers(0, 3), st.integers(0, 2), st.integers(0, 1),
        st.integers(1, 4)), max_size=12))
    def test_a_request_table_is_its_archive(self, tmp_path, monkeypatch,
                                            rows):
        """Random tables, shed rows' NaN stamps and several chunks: the
        archive loads back list for list and analyses alike."""
        from repro.telemetry import export

        monkeypatch.setattr(export, "REQUEST_CHUNK", 5)
        shed = np.array([row[2] for row in rows], dtype=np.int8)
        arrival = np.array([row[0] for row in rows])
        done = np.where(shed == 0, arrival + [row[1] for row in rows], np.nan)
        table = SimpleNamespace(
            tenant_names=["a", "b", "c"], arrival=arrival,
            dispatch=np.where(shed == 0, arrival, np.nan), done=done,
            device=np.where(shed == 0, [row[4] for row in rows], -1),
            served_version=np.where(shed == 0, [row[5] for row in rows], -1),
            tenant=[row[3] for row in rows], priority=[row[4] for row in rows],
            shed=shed,
        )
        tel = Telemetry(label="table")
        tel.attach(Environment(), algorithm="serve-adaptive",
                   n_requests=len(rows))
        tel.record_requests(table)
        tel.detach()
        path = export.write_jsonl(tel, tmp_path / "t.jsonl")
        with path.open() as fh:
            kinds = [json.loads(line)["type"] for line in fh]
        assert kinds.count("requests") == max(1, -(-len(rows) // 5))
        archive = TraceData.from_jsonl(path)
        assert canon(load_trace_data(tel)) == canon(archive)
        assert canon(archive) == canon(reference.trace_from_jsonl(path))
        assert cli_json(analyze_report(tel)) \
            == cli_json(analyze_report(archive))

    @pytest.mark.parametrize("name, section", [
        ("tenants", "serving_tenants"), ("churn", "membership"),
        ("store", "serving_swaps"),
    ])
    def test_a_serve_recorder_is_its_archive(self, archives, name, section):
        """The request table too: recorded once at run end, written in
        chunks, loaded back list for list (NaN stamps of shed rows
        included), and analysed to the same JSON."""
        path = getattr(archives, name)
        tel = archives.recorders[name]
        live, archive = load_trace_data(tel), TraceData.from_jsonl(path)
        assert all(run.requests is not None for run in live.runs)
        assert canon(live) == canon(archive)
        report = analyze_report(tel)
        assert cli_json(report) == cli_json(analyze_report(archive))
        assert any(section in run for run in report["runs"])
        if name == "tenants":
            shed = tel.runs[-1].requests.shed
            assert any(shed)
            assert report["runs"][-1][section]["n_shed"] == sum(map(bool, shed))
        if name == "store":
            swaps = report["runs"][0][section]
            assert swaps["commits"] > 0
            assert "requests_in_window" in swaps["events"][0]


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

    @pytest.mark.parametrize("name", ["grid", "tenants", "churn", "store"])
    def test_another_runs_block_is_unscanned_but_its_run_record(
            self, archives, scans, name):
        """A block outside ``runs`` is skipped by its declared length: of
        its lines only the first, which must open it, is scanned."""
        path = getattr(archives, name)
        with path.open() as fh:
            lines = list(fh)
        records = [json.loads(line) for line in lines]
        assert {r["type"] for r in records} == {
            "trace", "run", "span", "counter", "kernel",
            *(["instant"] if name != "tenants" else []),
            *(["requests"] if name != "grid" else [])}
        full = reference.trace_from_jsonl(path)
        some = TraceData.from_jsonl(path, runs={0})
        assert canon(some.run(0)) == canon(full.run(0))
        assert len(some.runs) == len(full.runs)
        assert set(scans) == {line for line, record in zip(lines, records)
                              if record.get("run", 0) == 0
                              or record["type"] == "run"}

    def test_an_undeclared_archive_is_parsed_into_the_right_run(
            self, tmp_path, scans):
        """Without a header declaring run blocks every line is scanned, and
        the parsed ``run`` decides: reordered keys, an escaped name, a run
        index that is not an integer literal (``2e-1`` builds run 0) and a
        last line without its newline."""
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
        for index in (0, 1):
            scans.clear()
            some = TraceData.from_jsonl(path, runs={index})
            assert canon(some.run(index)) == canon(full.run(index))
            # The first line twice: it is also looked at as a header.
            assert [line.rstrip("\n") for line in scans] == lines[:1] + lines
        assert [i.name for i in full.run(0).instants] == ["float"]
        assert [s.name for s in full.run(1).spans] == ["reordered"]
        assert [i.name for i in full.run(1).instants] == ['say "hi"']
        assert list(full.run(1).samples) == ["tail"]

    def test_an_unbuilt_run_is_refused_not_empty(self, archives):
        from repro.telemetry.events import RunData

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
        in whatever order its keys are: its block is skipped unread."""
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


#: Three runs for a recorder: every record kind, and an empty run.
SMALL_RUNS = [
    ({"algorithm": "adaptive"}, [
        ("span", "run", None, 0.0, 2.0, {}),
        ("span", "step.compute", 1, 0.0, 1.0, {"size": 8}),
        ("instant", "checkpoint", None, 1.0, {"k": 1}),
        ("gauge", "loss", None, 0.5),
        ("counter", "updates", 0, 3.0, 1.0)]),
    ({"algorithm": "elastic"}, []),
    ({"algorithm": "slide"}, [
        ("span", "merge", None, 0.5, 0.25, {}),
        ("gauge", "accuracy", None, float("nan"))]),
]


def small_archive(tmp_path, which=(0, 1, 2)):
    """The archive of a recorder of ``SMALL_RUNS[i] for i in which``, with
    two kernel rows."""
    from repro.telemetry.export import write_jsonl

    tel = Telemetry(label="small")
    record(tel, [SMALL_RUNS[i] for i in which])
    tel.kernels.add("spmm", 0.01, 9)
    tel.kernels.add("topk", 0.02)
    return write_jsonl(tel, tmp_path / "small.jsonl")


def loads_or_raises(path, runs):
    """``from_jsonl(path, runs=runs)``'s runs, or the error it raised."""
    try:
        return canon(TraceData.from_jsonl(path, runs=runs).runs)
    except DataFormatError as exc:
        assert str(exc).startswith(str(path))
        return exc


# -- (e) declared run blocks -----------------------------------------------------
class TestDeclaredBlocks:
    """``write_jsonl``'s header declares each run block's length in lines."""

    SUBSETS = [None, set(), {0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2},
               {0, 1, 2}, {7}]

    def test_every_subset_builds_what_the_full_load_does(self, tmp_path):
        path = small_archive(tmp_path)
        full = TraceData.from_jsonl(path)
        assert canon(full) == canon(reference.trace_from_jsonl(path))
        assert [len(run.spans) for run in full.runs] == [2, 0, 1]
        assert len(full.kernels) == 2
        for runs in self.SUBSETS:
            some = TraceData.from_jsonl(path, runs=runs)
            assert (some.label, len(some.runs)) == ("small", 3)
            assert some.kernels == full.kernels
            for index in runs if runs is not None else range(3):
                if index < 3:
                    assert canon(some.run(index)) == canon(full.run(index))

    def test_wrong_lengths_raise_and_build_no_wrong_run(self, tmp_path):
        """A moved block boundary fails every load. A declaration that
        merges blocks fails every load that builds the merged block; one
        that skips it cannot tell, and builds only true runs."""
        path = small_archive(tmp_path)
        full = TraceData.from_jsonl(path)
        with path.open() as fh:
            header, *rest = fh
        blocks = json.loads(header)["blocks"]
        moved = []
        # (lengths, the index of the block that holds two runs)
        merged = [([sum(blocks)], 0), ([blocks[0], sum(blocks[1:])], 1)]
        for i in range(len(blocks)):
            for delta in (-1, 1):
                lengths = list(blocks)
                lengths[i] += delta
                moved.append(lengths)
                if 0 <= i + delta < len(blocks):
                    moved.append(lengths[:])
                    moved[-1][i + delta] -= delta  # the same line total
        moved += [blocks[:-1], blocks + [1], [0] + blocks, "many", [1.5] * 3]
        bad = tmp_path / "wrong.jsonl"
        for lengths, both in [(m, None) for m in moved] + merged:
            bad.write_text(json.dumps({**json.loads(header),
                                       "blocks": lengths}) + "\n"
                           + "".join(rest))
            for runs in self.SUBSETS:
                got = loads_or_raises(bad, runs)
                if both is None or runs is None or both in runs:
                    assert isinstance(got, DataFormatError), (lengths, runs)
                elif not isinstance(got, DataFormatError):
                    some = TraceData.from_jsonl(bad, runs=runs)
                    assert len(some.runs) < len(full.runs)
                    for index in runs & set(range(len(some.runs))):
                        assert canon(some.run(index)) \
                            == canon(full.run(index))

    def test_every_line_boundary_cut_raises(self, tmp_path):
        """A cut that keeps at least the header fails every load; a cut to
        nothing is an empty file, a valid zero-run trace."""
        with small_archive(tmp_path, which=(0, 2)).open() as fh:
            lines = list(fh)
        assert len(json.loads(lines[0])["blocks"]) == 2
        cut = tmp_path / "cut.jsonl"
        for keep in range(1, len(lines)):
            cut.write_text("".join(lines[:keep]))
            for runs in (None, set(), {0}, {1}, {0, 1}, {5}):
                assert isinstance(loads_or_raises(cut, runs),
                                  DataFormatError), (keep, runs)

    def test_a_last_line_cut_short_raises_in_a_skipped_block(
            self, archives, tmp_path):
        with archives.tenants.open() as fh:
            text = fh.read()
        cut = tmp_path / "cut.jsonl"
        cut.write_text(text[:-25])
        for runs in (None, {0}, {1}):
            with pytest.raises(DataFormatError, match=re.escape(str(cut))):
                TraceData.from_jsonl(cut, runs=runs)

    def test_a_cut_archive_is_one_error_line(self, archives, tmp_path,
                                             capsys):
        with archives.grid.open() as fh:
            lines = list(fh)
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(lines[:-1]))
        for extra in ([], ["--run", "1"], ["--json"]):
            capsys.readouterr()
            assert main(["analyze", str(cut), *extra]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            (line,) = err.splitlines()
            assert line.startswith(f"error: {cut}:{len(lines)}: not the run "
                                   "blocks of ")

    def test_kernel_rows_stay_outside_the_blocks(self, archives, tmp_path):
        """What CI's hash-seed step loads: the archive minus its kernel
        rows, which precede the run blocks and are not counted in them."""
        with archives.grid.open() as fh:
            lines = list(fh)
        kinds = [json.loads(line)["type"] for line in lines]
        first_run = kinds.index("run")
        assert set(kinds[1:first_run]) == {"kernel"}
        assert "kernel" not in kinds[first_run:]
        path = tmp_path / "records.jsonl"
        path.write_text("".join(line for line, kind in zip(lines, kinds)
                                if kind != "kernel"))
        full = TraceData.from_jsonl(archives.grid)
        some = TraceData.from_jsonl(path, runs={1})
        assert some.kernels == [] and len(some.runs) == len(full.runs)
        assert canon(some.run(1)) == canon(full.run(1))

    def test_an_undeclared_kind_major_archive_loads_as_before(self):
        """An archive written before the blocks were declared: every line
        is parsed, and a selective load drops other runs after the parse."""
        path = Path(__file__).resolve().parent / "data" \
            / "micro_pair.telemetry.jsonl"
        with path.open() as fh:
            kinds = [json.loads(line)["type"] for line in fh]
        assert kinds[:3] == ["trace", "run", "run"]
        full = TraceData.from_jsonl(path)
        assert canon(full) == canon(reference.trace_from_jsonl(path))
        for index in (0, 1):
            some = TraceData.from_jsonl(path, runs={index})
            assert canon(some.run(index)) == canon(full.run(index))


# -- well-formed JSON that is not a record --------------------------------------
NOT_RECORDS = {
    "a scalar": "3",
    "a span without run": '{"type":"span"}',
    "a run that is no index": '{"type":"span","run":"x","name":"a"}',
    "a timestamp that is no number":
        '{"type":"counter","run":0,"name":"a","ts":"oops","value":1}',
    "a record without a type": '{"run":0,"name":"a"}',
    "a type that is no string": '{"type":1,"run":0}',
    "a Chrome trace object": '{"traceEvents":[],"displayTimeUnit":"ms"}',
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

    def test_from_jsonl_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        records = [RECORDS[0], RECORDS[2], {"type": "counter", "run": 0}]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DataFormatError,
                           match=rf"^{re.escape(str(path))}:3: malformed "
                                 r"'counter' record"):
            TraceData.from_jsonl(path)
        path.write_text("3\n")
        with pytest.raises(DataFormatError,
                           match=rf"^{re.escape(str(path))}:1: malformed "
                                 r"'int' record"):
            TraceData.from_jsonl(path)


def damage_requests(record, run_record, case):
    """Damage run 1's ``requests`` record (or its ``run`` record) of a
    ``--tenants`` archive as ``case`` says; returns the expected text."""
    if case == "unequal columns":
        record["done"].pop()
        return "ValueError: request columns are not lists of one length"
    if case == "a non-numeric cell":
        record["arrival"][3] = "soon"
        return "TypeError: a non-numeric 'arrival' cell"
    if case == "an integer column with a float":
        record["device"][0] = 1.5
        return "TypeError: a non-integer 'device' cell"
    if case == "a tenant code out of range":
        record["tenant"][0] = len(record["tenant_names"])
        return "ValueError: a 'tenant' code out of range"
    if case == "rows past n_requests":
        n = len(record["arrival"])
        run_record["n_requests"] = n - 1
        return (f"ValueError: rows 0..{n} run past the run's n_requests "
                f"({n - 1})")
    if case == "another run's rows":
        record["run"] = 0
        return "ValueError: run 0's request rows outside its block"
    assert case == "a chunk out of order"
    record["start"] = 5
    return "ValueError: a chunk at row 5, not at row 0"


class TestDamagedRequestRecords:
    """A ``requests`` record is checked as it is built: every damage names
    the file and the line, and through the CLI is one ``error:`` line."""

    CASES = ["unequal columns", "a non-numeric cell",
             "an integer column with a float", "a tenant code out of range",
             "rows past n_requests", "another run's rows",
             "a chunk out of order"]

    @pytest.mark.parametrize("case", CASES)
    def test_each_damage_is_one_error_line(self, archives, tmp_path,
                                           capsys, case):
        with archives.tenants.open() as fh:
            records = [json.loads(line) for line in fh]
        lineno, record = next(
            (n, r) for n, r in enumerate(records, start=1)
            if r["type"] == "requests" and r["run"] == 1)
        run_record = next(r for r in records
                          if r["type"] == "run" and r["run"] == 1)
        assert record["start"] == 0 and "tenant_names" in record
        why = damage_requests(record, run_record, case)
        bad = tmp_path / "T.telemetry.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        want = f"{bad}:{lineno}: malformed 'requests' record: {why}"
        for runs in (None, {1}):
            with pytest.raises(DataFormatError) as info:
                TraceData.from_jsonl(bad, runs=runs)
            assert str(info.value) == want
        assert canon(TraceData.from_jsonl(bad, runs={0}).run(0)) \
            == canon(TraceData.from_jsonl(archives.tenants).run(0))
        for extra in ([], ["--json"], ["--run", "1"]):
            capsys.readouterr()
            assert main(["analyze", str(bad), *extra]) == 1
            assert capsys.readouterr() == ("", f"error: {want}\n")


class TestARunPastTheArchive:
    """A record's ``run`` is checked before any run is built: against the
    header's block count, else against the lines read so far."""

    FAR = '{"type":"span","name":"x","run":300000,"ts":0,"dur":1}\n'
    DECLARED = ('{"type":"trace","label":"t","blocks":[2]}\n'
                '{"type":"run","run":0}\n')

    @pytest.mark.parametrize("head, runs", [
        ("", None), ("", {0}), ("", {7}), (DECLARED, None), (DECLARED, {0}),
    ])
    def test_its_line_raises_and_no_run_is_built(self, tmp_path, head,
                                                 runs):
        path = tmp_path / "far.jsonl"
        path.write_text(head + self.FAR)
        line = head.count("\n") + 1
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=(
                    rf"^{re.escape(str(path))}:{line}: malformed 'span' "
                    r"record: ValueError: run 300000 is past")):
                TraceData.from_jsonl(path, runs=runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # building the runs took 111 MiB

    def test_a_block_that_is_not_read_is_not_checked(self, tmp_path):
        path = tmp_path / "far.jsonl"
        path.write_text(self.DECLARED + self.FAR)
        assert len(TraceData.from_jsonl(path, runs={1}).runs) == 1

    def test_a_run_as_far_as_its_line_still_loads(self, tmp_path):
        path = tmp_path / "near.jsonl"
        path.write_text('{"type":"trace","label":"t"}\n'
                        '{"type":"run","run":2}\n')
        assert [run.index for run in TraceData.from_jsonl(path).runs] \
            == [0, 1, 2]


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
    """Values are made JSON-safe once, as they are recorded, so analysing a
    recorder walks none of its events: only writing an archive does."""

    @pytest.fixture(scope="class")
    def grid(self):
        from repro.harness.experiment import ExperimentSpec, run_experiment

        tel = Telemetry(label="grid")
        spec = ExperimentSpec(
            dataset="micro", algorithms=tuple(ALGORITHMS), gpu_counts=(2,),
            time_budget_s=0.003, eval_samples=64,
        )
        results = run_experiment(spec, telemetry=tel)
        assert len(tel.runs) == len(ALGORITHMS)
        return spec, results, tel

    @pytest.fixture()
    def passes(self, monkeypatch):
        """The recorders every ``iter_jsonl_records`` pass walked."""
        from repro.telemetry import export

        calls = []
        original = export.iter_jsonl_records

        def counting(recorder):
            calls.append(recorder)
            return original(recorder)

        monkeypatch.setattr(export, "iter_jsonl_records", counting)
        return calls

    def test_record_experiment_iterates_the_recorder_once(
            self, grid, passes, tmp_path):
        """The archive write, whatever the grid size; none when the caller
        hands over the archive it already wrote. Fails (with 2 and 1) if the
        headlines go back to rebuilding the runs from the record stream,
        and (with 8) if every ``record_train_run`` call does."""
        from repro.registry.record import record_experiment
        from repro.telemetry.export import write_jsonl

        spec, results, tel = grid
        registry = RunRegistry(tmp_path / "reg")
        run_ids = record_experiment(registry, results, spec=spec,
                                    telemetry=tel)
        assert len(run_ids) == len(ALGORITHMS)
        assert passes == [tel]
        # Every sibling still got its own run's headline metrics.
        durations = {
            registry.get(run_id).metrics["span/run_s"] for run_id in run_ids
        }
        assert len(durations) > 1

        archive = write_jsonl(tel, tmp_path / "grid.jsonl")
        passes.clear()
        copied = record_experiment(registry, results, spec=spec,
                                   telemetry=tel, telemetry_jsonl=archive)
        assert passes == []
        assert [registry.get(run_id).metrics for run_id in copied] \
            == [registry.get(run_id).metrics for run_id in run_ids]

    def test_analysing_a_recorder_walks_no_events(self, grid, passes,
                                                  tmp_path):
        from repro.telemetry.export import write_jsonl

        _, _, tel = grid
        data = load_trace_data(tel)
        assert data.runs is tel.runs
        report = cli_json(analyze_report(tel))
        assert passes == []
        path = write_jsonl(tel, tmp_path / "grid.jsonl")
        assert report == cli_json(analyze_report(path))
