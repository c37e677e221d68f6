"""A normalized, source-agnostic view of one telemetry stream.

The analytics engine (:mod:`repro.telemetry.analyze`,
:mod:`repro.telemetry.diagnose`, :mod:`repro.telemetry.compare`) never reads
a :class:`~repro.telemetry.core.Telemetry` recorder or an archive directly —
it consumes :class:`TraceData`, which can be built from any of the three
places a run lives:

- a live recorder (:meth:`TraceData.from_telemetry`);
- an archived JSONL event stream (:meth:`TraceData.from_jsonl`);
- an archived Chrome ``trace_event`` file (:func:`load_trace_data`, which
  sniffs it and replays it as records through :func:`_chrome_records`).

The live and JSONL constructors both funnel through the *same* JSONL record
stream (:func:`repro.telemetry.export.iter_jsonl_records`), so any analysis
over a ``TraceData`` is **byte-identical** whether it saw the recorder or
the archive of the same run — the property the acceptance tests pin down.
The Chrome path round-trips through microseconds and is therefore exact
only to float precision; prefer the JSONL archive for analysis.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple, Union

from repro.exceptions import DataFormatError
from repro.telemetry.events import (
    COUNTER_UPDATES,
    SPAN_RUN,
    InstantEvent,
    Series,
    SpanEvent,
    device_key,
)

__all__ = ["RunData", "TraceData", "split_device_key", "trace_file",
           "load_trace_data"]

PathLike = Union[str, Path]


def split_device_key(key: str) -> Tuple[Optional[int], str]:
    """Invert :func:`device_key`: ``"gpu3/updates" -> (3, "updates")``.

    Names without the ``gpu<i>/`` prefix are driver-level: ``(None, key)``.
    """
    if key.startswith("gpu"):
        head, sep, tail = key.partition("/")
        if sep and head[3:].isdigit():
            return int(head[3:]), tail
    return None, key


# JSONL serializes non-finite samples as null; analysis sees them as NaN.
_NAN = float("nan")
#: What JSON that is no record (``3``, a span without ``run``) raises in ``_add``.
_RECORD_ERRORS = (AttributeError, KeyError, TypeError, ValueError)
#: ``json.loads`` minus its whitespace regexes and Python ``decode`` frame.
_scan_once = json.JSONDecoder().scan_once
_CHROME_KINDS = {"X": "span", "i": "instant", "C": "counter"}
#: The record kinds that create the run they name.
_RUN_KINDS = ("span", "instant", "counter", "idle", "run")
#: How ``write_jsonl`` opens a run's record: only flat string members come
#: before ``"run"``, so the captured index is the record's own.
_run_prefix = re.compile(r'\{"type": "(?:%s)", (?:"name": "[^"\\]*", )?"run": '
                         r'(0|[1-9][0-9]*)[,}]' % "|".join(_RUN_KINDS)).match


def _malformed(where: str, record, exc: Exception) -> DataFormatError:
    kind = record.get("type") if isinstance(record, dict) else type(record).__name__
    return DataFormatError(
        f"{where}: malformed {kind!r} record: {type(exc).__name__}: {exc}"
    )


@dataclass
class RunData:
    """One run's worth of normalized telemetry."""

    index: int
    meta: Dict[str, object] = field(default_factory=dict)
    spans: List[SpanEvent] = field(default_factory=list)
    instants: List[InstantEvent] = field(default_factory=list)
    #: Counter/gauge key (device-prefixed) -> samples, in recording order.
    samples: Dict[str, Series] = field(default_factory=dict)
    #: Device id -> idle-accountant record (busy_s / idle_s / ...).
    idle: Dict[int, Dict[str, float]] = field(default_factory=dict)

    # -- accessors -----------------------------------------------------------
    def devices(self) -> List[int]:
        """Sorted device ids seen in spans or device-prefixed series."""
        seen = {s.device for s in self.spans if s.device is not None}
        seen.update(
            i.device for i in self.instants if i.device is not None
        )
        for key in self.samples:
            device, _ = split_device_key(key)
            if device is not None:
                seen.add(device)
        seen.update(self.idle)
        return sorted(seen)

    def spans_named(
        self, name: str, *, device: object = "any"
    ) -> List[SpanEvent]:
        """Spans called ``name``; ``device`` filters (``"any"`` = no filter)."""
        if device == "any":
            return [s for s in self.spans if s.name == name]
        return [s for s in self.spans if s.name == name and s.device == device]

    def run_span(self) -> Optional[SpanEvent]:
        """The root ``run`` span, or ``None`` for a zero-span run."""
        for s in self.spans:
            if s.name == SPAN_RUN:
                return s
        return None

    def start(self) -> float:
        """The run's start time (root span start, else earliest event, else 0)."""
        root = self.run_span()
        if root is not None:
            return root.ts
        starts = [s.ts for s in self.spans] + [i.ts for i in self.instants]
        starts += [t for series in self.samples.values() for t, _ in series[:1]]
        return min(starts) if starts else 0.0

    def duration(self) -> float:
        """Simulated seconds the run covers (root span, else the event hull)."""
        root = self.run_span()
        if root is not None:
            return root.dur
        start = self.start()
        ends = [s.ts + s.dur for s in self.spans]
        ends += [i.ts for i in self.instants]
        ends += [t for series in self.samples.values() for t, _ in series[-1:]]
        return max(ends) - start if ends else 0.0

    def series(self, name: str, *, device: Optional[int] = None) -> Series:
        """Samples of ``name`` on ``device`` (driver when ``None``)."""
        return self.samples.get(device_key(name, device), [])

    def final(self, name: str, *, device: Optional[int] = None) -> Optional[float]:
        """The last recorded value of a series, or ``None`` if absent."""
        series = self.series(name, device=device)
        return series[-1][1] if series else None

    def update_counts(self) -> Dict[int, float]:
        """Device -> final cumulative update count (Algorithm 1's ``u_i``),
        for the devices that recorded one, in device order."""
        counts = {}
        for device in self.devices():
            final = self.final(COUNTER_UPDATES, device=device)
            if final is not None:
                counts[device] = final
        return counts

    def label(self) -> str:
        """Human-readable run identity (algorithm + device count)."""
        algorithm = str(self.meta.get("algorithm", f"run {self.index}"))
        n = self.meta.get("n_devices")
        return f"{algorithm} ({n} dev)" if n is not None else algorithm


@dataclass
class TraceData:
    """A whole recorded experiment: runs + aggregate kernel profile."""

    label: str = "trace"
    runs: List[RunData] = field(default_factory=list)
    kernels: List[Dict[str, object]] = field(default_factory=list)
    #: Runs a selective load built (``None``: all); :meth:`run` refuses the rest.
    built: Optional[AbstractSet[int]] = None

    def run(self, index: int) -> RunData:
        """The run at ``index`` (negative indices count from the end)."""
        try:
            run = self.runs[index]
        except IndexError:
            raise DataFormatError(
                f"trace {self.label!r} has {len(self.runs)} run(s); "
                f"no run {index}"
            ) from None
        if self.built is not None and run.index not in self.built:
            raise LookupError(f"run {index} of {self.label!r} was not loaded")
        return run

    # -- the one record builder ----------------------------------------------
    def _run_at(self, index: int) -> RunData:
        runs = self.runs
        while len(runs) <= index:
            runs.append(RunData(index=len(runs)))
        return runs[index]

    def _add(self, record: Dict[str, object]) -> None:
        """Fold in one JSONL-shaped record: the one builder every constructor
        ends in. Dispatch is by frequency (counters + spans: 90% of records)."""
        kind = record.get("type")
        if kind == "counter":
            ts, value = record.get("ts"), record.get("value")
            series = self._run_at(int(record["run"])).samples
            series.setdefault(str(record["name"]), []).append((
                _NAN if ts is None else float(ts),
                _NAN if value is None else float(value),
            ))
        elif kind == "span" or kind == "instant":
            run_idx = int(record["run"])
            run = self._run_at(run_idx)
            name = str(record["name"])
            ts = record.get("ts")
            ts = _NAN if ts is None else float(ts)
            device = record.get("device")
            device = None if device is None else int(device)
            args = dict(record.get("args") or {})
            # Positional: keywords cost a sixth of the builder on a real archive.
            if kind == "span":
                dur = record.get("dur")
                dur = _NAN if dur is None else float(dur)
                run.spans.append(SpanEvent(name, ts, dur, run_idx, device, args))
            else:
                run.instants.append(InstantEvent(name, ts, run_idx, device, args))
        elif kind == "idle":
            self._run_at(int(record["run"])).idle[int(record["device"])] = {
                k: v for k, v in record.items()
                if k not in ("type", "run", "device")
            }
        elif kind == "run":
            self._run_at(int(record["run"])).meta.update(
                (k, v) for k, v in record.items() if k not in ("type", "run")
            )
        elif kind == "kernel":
            self.kernels.append({k: v for k, v in record.items() if k != "type"})
        elif kind == "trace":
            self.label = str(record.get("label", self.label))
        # Unknown record types are skipped: newer archives stay loadable.

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_records(
        cls, records: Iterable[Dict[str, object]], *, label: str = "trace"
    ) -> "TraceData":
        """Build from JSONL-shaped record dicts (``type`` discriminates)."""
        data = cls(label=label)
        add = data._add
        for ordinal, record in enumerate(records, start=1):
            try:
                add(record)
            except _RECORD_ERRORS as exc:
                raise _malformed(f"record {ordinal}", record, exc) from exc
        return data

    @classmethod
    def from_telemetry(cls, tel) -> "TraceData":
        """Normalize a live :class:`~repro.telemetry.core.Telemetry`.

        Routed through the JSONL record stream so analysis of the live
        recorder matches analysis of its archive byte for byte.
        """
        from repro.telemetry.export import iter_jsonl_records

        return cls.from_records(iter_jsonl_records(tel), label=tel.label)

    @classmethod
    def from_jsonl(cls, path: PathLike, text: Optional[str] = None, *,
                   runs: Optional[AbstractSet[int]] = None) -> "TraceData":
        """Load an archive written by :func:`repro.telemetry.export.write_jsonl`
        in one streaming pass (``text``: its content, if already read).

        A line the C scanner consumes exactly (all ``write_jsonl`` emits)
        goes straight to the builder; any other takes the ``strip()`` /
        ``json.loads`` path, which alone decides what is accepted and what
        an error says. An empty file is a valid zero-run trace (a run that
        recorded no steps must still load). ``runs`` builds only those runs
        (a negative index loads all): a record of another run is dropped before
        the builder, and before the scan if its line matches ``_run_prefix``
        and ends in ``}\\n``.
        """
        path = Path(path)
        data = cls(label=path.stem)
        add = data._add
        if runs is not None and min(runs, default=0) >= 0:
            data.built = frozenset(runs)
        keep = None if data.built is None else {str(i) for i in runs}
        skipped = set()
        with (path.open() if text is None else io.StringIO(text)) as lines:
            for lineno, line in enumerate(lines, start=1):
                if keep is not None and (match := _run_prefix(line)) \
                        and match[1] not in keep and line[-2:] == "}\n":
                    skipped.add(match[1])
                    continue
                try:
                    record, end = _scan_once(line, 0)
                except (StopIteration, ValueError):
                    end = -1
                if end < 0 or line[end:] != "\n":
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise DataFormatError(
                            f"{path}:{lineno}: invalid JSONL record: {exc}"
                        ) from exc
                if keep is not None and type(record) is dict \
                        and record.get("type") in _RUN_KINDS:
                    run = record.get("run")
                    if type(run) is int and run >= 0 and run not in data.built:
                        skipped.add(run)
                        continue
                try:
                    add(record)
                except _RECORD_ERRORS as exc:
                    raise _malformed(f"{path}:{lineno}", record, exc) from exc
        if skipped:  # placeholders, so the run count is the full load's
            data._run_at(max(map(int, skipped)))
        return data


def _chrome_records(obj: dict):
    """A Chrome ``trace_event`` object as the JSONL records it came from.

    Timestamps round-trip through microseconds, so durations are exact only
    to float precision — fine for attribution and diagnosis, but
    byte-identical comparisons should use the JSONL archive.
    """
    other = obj.get("otherData", {})
    if "label" in other:
        yield {"type": "trace", "label": other["label"]}
    for run_idx, meta in enumerate(other.get("runs", [])):
        yield {**meta, "type": "run", "run": run_idx}
    for row in other.get("kernels", []):
        yield {**row, "type": "kernel"}
    for event in obj["traceEvents"]:
        kind = _CHROME_KINDS.get(event.get("ph"))
        if kind is None:  # "M" only names things; identity is otherData.runs
            continue
        tid = int(event.get("tid", 0))
        ts, dur, args = event.get("ts"), event.get("dur"), event.get("args")
        yield {
            "type": kind, "name": event["name"], "run": event.get("pid", 0),
            "device": None if tid == 0 else tid - 1,
            "ts": None if ts is None else float(ts) / 1e6,
            "dur": None if dur is None else float(dur) / 1e6,
            "args": args, "value": (args or {}).get("value"),
        }


def trace_file(source) -> Optional[Path]:
    """The resolved file :func:`load_trace_data` reads for ``source`` (a
    directory means its ``telemetry.jsonl``); ``None`` for a ``TraceData`` or
    a live recorder, which is duck-typed to avoid importing core eagerly."""
    if isinstance(source, TraceData) or (
        hasattr(source, "spans") and hasattr(source, "samples")
    ):
        return None
    path = Path(source)
    return (path / "telemetry.jsonl" if path.is_dir() else path).resolve()


def load_trace_data(source, *, runs=None) -> TraceData:
    """Coerce anything the CLI or API accepts into a :class:`TraceData`.

    ``source`` may be a :class:`TraceData` (returned as-is), a live
    :class:`~repro.telemetry.core.Telemetry` recorder, a ``.jsonl`` archive,
    a Chrome ``.trace.json`` export, or a directory containing a
    ``telemetry.jsonl`` (a registered run's). Only a JSONL archive builds
    just ``runs``.
    """
    if isinstance(source, TraceData):
        return source
    if trace_file(source) is None:
        return TraceData.from_telemetry(source)
    path = Path(source)
    if path.is_dir():
        path = path / "telemetry.jsonl"
        if not path.exists():
            raise DataFormatError(
                f"{path.parent} is a directory without a telemetry.jsonl "
                "(not a run directory?)"
            )
    elif not path.exists():
        raise DataFormatError(f"no trace at {path}")
    if path.suffix == ".jsonl":
        return TraceData.from_jsonl(path, runs=runs)
    # Any other suffix, read once: a Chrome trace is one JSON object holding
    # "traceEvents"; everything else is JSONL lines.
    text = path.read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = None
    if isinstance(obj, dict) and "traceEvents" in obj:
        return TraceData.from_records(_chrome_records(obj), label=path.stem)
    return TraceData.from_jsonl(path, text, runs=runs)
