"""The analysis view of a recorded experiment, from a recorder or an archive.

The analytics engine (:mod:`repro.telemetry.analyze`, ``diagnose``,
``compare``) reads :class:`TraceData`: a label, the kernel rows and one
:class:`~repro.telemetry.events.RunData` per run, from either place a run
lives:

- a live :class:`~repro.telemetry.core.Telemetry` records into ``RunData``
  with JSON-safe values, so :func:`load_trace_data` wraps its ``runs`` as
  they are, with no pass over the events;
- a JSONL archive is read back by :meth:`TraceData.from_jsonl` through the
  one record builder, ``TraceData._add``; its header declares each run's
  block of lines, so a load of one run skips the others' blocks unread.

So any analysis is **byte-identical** for a recorder and its archive. The
Chrome ``trace_event`` file beside the archive is an export only:
:func:`load_trace_data` refuses it and names the archive.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import AbstractSet, Dict, List, Optional, Union

from repro.exceptions import DataFormatError
from repro.telemetry.events import (FLOAT_COLUMNS, REQUEST_COLUMNS,
                                    SHED_REASONS, InstantEvent, RequestTable,
                                    RunData, SpanEvent)
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
#: The record kinds that create the run they name. A ``requests`` record
#: is not one: it extends the run whose record precedes it, checked even
#: in a selective load (only a declared archive has them).
_RUN_KINDS = ("span", "instant", "counter", "run")


def _peek(pair) -> dict:
    """The JSON object a numbered line starts with, or ``{}``: no build."""
    try:
        record = _scan_once(pair[1], 0)[0] if pair else {}
    except (StopIteration, ValueError):
        return {}
    return record if type(record) is dict else {}


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
    #: The last run index the archive can hold (blocks - 1, else lines read).
    _last_run = -1

    def _run_at(self, index: int) -> RunData:
        runs = self.runs
        while len(runs) <= index:
            if index > self._last_run:
                raise ValueError(f"run {index} is past the {self._last_run + 1}"
                                 " run(s) the archive can hold by this line")
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
            self._opened = int(record["run"])
            self._run_at(self._opened).meta.update(
                (k, v) for k, v in record.items() if k not in ("type", "run")
            )
        elif kind == "kernel":
            self.kernels.append({k: v for k, v in record.items() if k != "type"})
        elif kind == "trace":
            self.label = str(record.get("label", self.label))
        elif kind == "requests":
            self._add_requests(record)
        elif type(kind) is not str:
            raise TypeError(f"no string 'type' (got {kind!r})")
        # Unknown record types are skipped: newer archives stay loadable, and
        # so do older ones with the ``idle`` totals analysis now derives.

    #: The run whose ``run`` record was read last: the one a ``requests``
    #: record may extend.
    _opened = None

    def _add_requests(self, record: Dict[str, object]) -> None:
        """Append a chunk to the last-opened run's request table: at the
        row the table ends, lists of one length (numbers, ``null`` for NaN,
        then ints, codes in range), ending within the run's ``n_requests``."""
        if record["run"] != self._opened:
            raise ValueError(f"run {record['run']}'s request rows outside "
                             "its block")
        run, start = self.runs[self._opened], record["start"]
        if start == 0 and run.requests is None:
            run.requests = RequestTable(list(map(str, record["tenant_names"])))
        table, columns = run.requests, [record[c] for c in REQUEST_COLUMNS]
        if table is None or start != len(table.arrival):
            raise ValueError(f"a chunk at row {start!r}, not at row "
                             f"{len(table.arrival) if table else 0}")
        n, total = len(columns[0]), run.meta.get("n_requests")
        if {*map(type, columns)} != {list} or {*map(len, columns)} != {n}:
            raise ValueError("request columns are not lists of one length")
        if type(total) is not int or start + n > total:
            raise ValueError(f"rows {start}..{start + n} run past the run's "
                             f"n_requests ({total!r})")
        limits = {"tenant": len(table.tenant_names), "shed": len(SHED_REASONS),
                  "priority": float("inf")}
        for i, (name, cells) in enumerate(zip(REQUEST_COLUMNS, columns)):
            kinds = {*map(type, cells)}
            if i < FLOAT_COLUMNS and kinds - {float}:
                if kinds - {float, int, type(None)}:
                    raise TypeError(f"a non-numeric {name!r} cell")
                cells = [_NAN if x is None else float(x) for x in cells]
            elif i >= FLOAT_COLUMNS and kinds - {int}:
                raise TypeError(f"a non-integer {name!r} cell")
            elif name in limits and cells and not (
                    0 <= min(cells) and max(cells) < limits[name]):
                raise ValueError(f"a {name!r} code out of range")
            getattr(table, name).extend(cells)

    def _build(self, path: Path, lines) -> int:
        """Fold in numbered ``lines``, dropping a record of a run outside
        ``built`` after its parse; returns the last line number."""
        add, keep, lineno = self._add, self.built, 0
        for lineno, line in lines:
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
            try:
                if keep is not None and type(record) is dict \
                        and record.get("type") in _RUN_KINDS:
                    run = record.get("run")
                    if type(run) is int and run >= 0 and run not in keep:
                        self._run_at(run)  # a placeholder: the run count
                        continue
                add(record)
            except _RECORD_ERRORS as exc:
                raise _malformed(f"{path}:{lineno}", record, exc) from exc
        return lineno

    def _build_blocks(self, path: Path, lines, blocks) -> None:
        """Fold in the kernel rows, then the run ``blocks`` the header
        declares, a block outside ``built`` skipped unread but for its
        first line. Raises unless each block is where it is declared."""
        end, pair = 1, next(lines, None)
        while _peek(pair).get("type") == "kernel":
            end, pair = self._build(path, (pair,)), next(lines, None)
        valid = type(blocks) is list and all(
            type(n) is int and n > 0 for n in blocks)
        self._last_run = len(blocks) - 1 if valid else -1
        for index, length in enumerate(blocks if valid else ()):
            opening = _peek(pair)
            if (opening.get("type"), opening.get("run")) != ("run", index):
                break
            block = chain((pair,), islice(lines, length - 1))
            if self.built is None or index in self.built:
                end = self._build(path, block)
            else:
                end, line = deque(block, maxlen=1)[0]
                end -= line[-1:] != "\n"  # a last line cut short is missing
                self._run_at(index)
            if end != pair[0] + length - 1:
                break
            pair = next(lines, None)
        else:  # no block held a run past the count: ``_run_at`` raised
            if valid and pair is None:
                return
        raise DataFormatError(
            f"{path}:{end + 1}: not the run blocks of {blocks} lines the "
            "header declares (a cut or edited archive)")

    def _counted(self, lines):
        """``lines``, each lifting ``_last_run`` to its own number."""
        for pair in lines:
            self._last_run = pair[0]
            yield pair

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_jsonl(cls, path: PathLike, *,
                   runs: Optional[AbstractSet[int]] = None) -> "TraceData":
        """Load an archive written by :func:`repro.telemetry.export.write_jsonl`
        in one streaming pass.

        A line the C scanner consumes exactly (all ``write_jsonl`` emits)
        goes straight to the builder; any other takes the ``strip()`` /
        ``json.loads`` path, which alone decides what is accepted and what
        an error says. An empty file is a valid zero-run trace. ``runs``
        builds only those runs (a negative index loads all). A header that
        declares the run blocks (``write_jsonl``'s) lets a block outside
        ``runs`` go unread but for its first line, and makes a cut at a line
        boundary raise; without one, every line is parsed.
        """
        path = Path(path)
        data = cls(label=path.stem)
        if runs is not None and min(runs, default=0) >= 0:
            data.built = frozenset(runs)
        try:
            with path.open(encoding="utf-8") as fh:
                lines = enumerate(fh, start=1)
                head = next(lines, None)
                header = _peek(head)
                if header.get("type") == "trace" and "blocks" in header:
                    data._build(path, (head,))
                    data._build_blocks(path, lines, header["blocks"])
                elif head:
                    data._build(path, data._counted(chain((head,), lines)))
        except UnicodeDecodeError as exc:
            raise undecodable(path) from exc
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
