"""The analysis view of a recorded experiment, from a recorder or an archive.

The analytics engine (:mod:`repro.telemetry.analyze`, ``diagnose``,
``compare``) reads :class:`TraceData`: a label, the kernel rows and one
:class:`~repro.telemetry.events.RunData` per run, from either place a run
lives:

- a live :class:`~repro.telemetry.core.Telemetry` records into ``RunData``
  with JSON-safe values, so :func:`load_trace_data` wraps its ``runs`` as
  they are, with no pass over the events;
- a JSONL archive is read back by :meth:`TraceData.from_jsonl` through the
  one record builder, ``TraceData._add``.

So any analysis is **byte-identical** for a recorder and its archive. The
Chrome ``trace_event`` file beside the archive is an export only:
:func:`load_trace_data` refuses it and names the archive.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Dict, List, Optional, Union

from repro.exceptions import DataFormatError
from repro.telemetry.events import InstantEvent, RunData, SpanEvent
from repro.utils.serialization import jsonable, undecodable

__all__ = ["TraceData", "trace_file", "load_trace_data"]

PathLike = Union[str, Path]
#: What ``repro trace --out STEM`` names its Chrome export (``STEM.trace.json``).
CHROME_SUFFIX = ".trace.json"


# JSONL serializes non-finite samples as null; analysis sees them as NaN.
_NAN = float("nan")
#: What JSON that is no record (``3``, a span without ``run``) raises in ``_add``.
_RECORD_ERRORS = (AttributeError, KeyError, TypeError, ValueError)
#: ``json.loads`` minus its whitespace regexes and Python ``decode`` frame.
_scan_once = json.JSONDecoder().scan_once
#: The record kinds that create the run they name.
_RUN_KINDS = ("span", "instant", "counter", "run")
#: How ``write_jsonl`` opens a run's record: only flat string members come
#: before ``"run"``, so the captured index is the record's own.
_run_prefix = re.compile(r'\{"type": "(?:%s)", (?:"name": "[^"\\]*", )?"run": '
                         r'(0|[1-9][0-9]*)[,}]' % "|".join(_RUN_KINDS)).match


def _malformed(where: str, record, exc: Exception) -> DataFormatError:
    kind = record.get("type") if isinstance(record, dict) else None
    if not isinstance(kind, str):
        kind = type(record).__name__
    return DataFormatError(
        f"{where}: malformed {kind!r} record: {type(exc).__name__}: {exc}"
    )


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
        """Fold in one parsed JSONL record: the one archive builder.
        Dispatch is by frequency (counters + spans: 90% of records)."""
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
        elif kind == "run":
            self._run_at(int(record["run"])).meta.update(
                (k, v) for k, v in record.items() if k not in ("type", "run")
            )
        elif kind == "kernel":
            self.kernels.append({k: v for k, v in record.items() if k != "type"})
        elif kind == "trace":
            self.label = str(record.get("label", self.label))
        elif type(kind) is not str:
            raise TypeError(f"no string 'type' (got {kind!r})")
        # Unknown record types are skipped: newer archives stay loadable, and
        # so do older ones with the ``idle`` totals analysis now derives.

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_jsonl(cls, path: PathLike, *,
                   runs: Optional[AbstractSet[int]] = None) -> "TraceData":
        """Load an archive written by :func:`repro.telemetry.export.write_jsonl`
        in one streaming pass.

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
        try:
            with path.open(encoding="utf-8") as lines:
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
        except UnicodeDecodeError as exc:
            raise undecodable(path) from exc
        if skipped:  # placeholders, so the run count is the full load's
            data._run_at(max(map(int, skipped)))
        return data


def trace_file(source) -> Optional[Path]:
    """The resolved file :func:`load_trace_data` reads for ``source`` (a
    directory means its ``telemetry.jsonl``); ``None`` for what is not a
    path: a ``TraceData`` or a live recorder."""
    if not isinstance(source, (str, os.PathLike)):
        return None
    path = Path(source)
    return (path / "telemetry.jsonl" if path.is_dir() else path).resolve()


def load_trace_data(source, *, runs=None) -> TraceData:
    """Coerce anything the CLI or API accepts into a :class:`TraceData`.

    ``source`` may be a :class:`TraceData` (returned as-is), a live
    :class:`~repro.telemetry.core.Telemetry` recorder, a JSONL archive under
    any name, or a directory containing a ``telemetry.jsonl`` (a registered
    run's). A live recorder builds every run, an archive just ``runs``. A
    Chrome ``*.trace.json`` export raises, naming the archive beside it.
    """
    if isinstance(source, TraceData):
        return source
    if trace_file(source) is None:  # a recorder: its runs are the view
        return TraceData(str(source.label), runs=source.runs,
                         kernels=jsonable(source.kernels.as_records()))
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
    if path.name.endswith(CHROME_SUFFIX):
        archive = path.name[:-len(CHROME_SUFFIX)] + ".telemetry.jsonl"
        raise DataFormatError(
            f"{path}: a Chrome trace is an export only; analyse the JSONL "
            f"archive beside it, {path.with_name(archive)}"
        )
    return TraceData.from_jsonl(path, runs=runs)
