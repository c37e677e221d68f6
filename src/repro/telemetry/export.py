"""Telemetry exporters: JSONL event log and Chrome trace.

Two consumers, two formats (the text summary of a recorder is
:func:`repro.harness.report.render_telemetry_summary`):

- :func:`write_jsonl` — one JSON object per line (runs, spans, instants,
  counter samples, kernel aggregates): the machine-greppable archive that
  experiment runs persist next to their traces, and the only one analysis
  reads back. It is run-major: a header declaring each run block's length,
  the kernel rows, then one contiguous block of lines per run, so a reader
  of one run skips the others unread. A serving run's block ends with its
  request table, ``REQUEST_CHUNK`` rows per ``requests`` record;
- :func:`iter_chrome_events` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON object format, loadable in ``chrome://tracing`` and
  https://ui.perfetto.dev. Each run is a "process" (pid), the driver and
  each GPU are "threads" (tid), simulated seconds become microseconds. It
  is an export only, written ``CHROME_BLOCK`` events at a time.

The Chrome export walks the runs a record kind at a time, the JSONL run by
run; args and metadata are stored JSON-safe already. All emitted JSON is
strict (``allow_nan=False``): a non-finite float is written as ``null``,
not as the invalid bare ``NaN`` token.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from repro.telemetry.core import Telemetry
from repro.telemetry.events import FLOAT_COLUMNS, REQUEST_COLUMNS
from repro.utils.serialization import jsonable, save_text

__all__ = [
    "iter_chrome_events",
    "write_chrome_trace",
    "iter_jsonl_records",
    "write_jsonl",
    "write_trace_files",
]

PathLike = Union[str, Path]

#: Chrome trace tid layout: driver-level events on 0, device ``i`` on i+1.
DRIVER_TID = 0
#: Events the Chrome writer encodes at once: its memory is one block's.
CHROME_BLOCK = 256
#: Request-table rows per ``requests`` record: the writer's memory is one
#: chunk's, and a 42,000-request run is 42 lines.
REQUEST_CHUNK = 1024
#: ``json.dumps(obj, allow_nan=False)`` without building an encoder per call.
_encode = json.JSONEncoder(allow_nan=False).encode


def _tid(device: Optional[int]) -> int:
    return DRIVER_TID if device is None else int(device) + 1


# -- Chrome trace_event ------------------------------------------------------
def iter_chrome_events(tel: Telemetry) -> Iterator[dict]:
    """Yield ``tel``'s Chrome ``traceEvents``: spans, instants, counter
    samples, then the metadata naming each run-process and device-thread."""
    for run in tel.runs:
        for span in run.spans:
            yield {
                "name": span.name,
                "cat": "sim",
                "ph": "X",
                "ts": span.ts * 1e6,
                "dur": span.dur * 1e6,
                "pid": span.run,
                "tid": _tid(span.device),
                "args": span.args,
            }
    for run in tel.runs:
        for inst in run.instants:
            yield {
                "name": inst.name,
                "cat": "sim",
                "ph": "i",
                "s": "t",
                "ts": inst.ts * 1e6,
                "pid": inst.run,
                "tid": _tid(inst.device),
                "args": inst.args,
            }
    for run in tel.runs:
        for name, series in run.samples.items():
            for t, v in series:
                value = jsonable(v)
                if value is None:
                    continue
                yield {
                    "name": name,
                    "cat": "sim",
                    "ph": "C",
                    "ts": t * 1e6,
                    "pid": run.index,
                    "tid": DRIVER_TID,
                    "args": {"value": value},
                }

    # Metadata: name each run-process and each device-thread.
    for run in tel.runs:
        devices = {e.device for events in (run.spans, run.instants)
                   for e in events if e.device is not None}
        yield {
            "name": "process_name", "ph": "M", "pid": run.index,
            "tid": DRIVER_TID, "args": {"name": run.label()},
        }
        for device in sorted(devices):
            yield {
                "name": "thread_name", "ph": "M", "pid": run.index,
                "tid": _tid(device), "args": {"name": f"gpu{device}"},
            }
        yield {
            "name": "thread_name", "ph": "M", "pid": run.index,
            "tid": DRIVER_TID, "args": {"name": "driver"},
        }


def _chrome_chunks(tel: Telemetry) -> Iterator[str]:
    """The bytes ``json.dumps`` gives the whole trace object, a block of
    events at a time: each block's list encoding minus its brackets."""
    yield '{"traceEvents": ['
    events = iter_chrome_events(tel)
    sep = ""
    while block := list(islice(events, CHROME_BLOCK)):
        yield sep
        yield _encode(block)[1:-1]
        sep = ", "
    yield "], "
    yield _encode({
        "displayTimeUnit": "ms",
        "otherData": {
            "label": tel.label,
            "clock": "simulated seconds (exported as microseconds)",
        },
    })[1:]
    yield "\n"


def write_chrome_trace(tel: Telemetry, path: PathLike) -> Path:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    return save_text(path, _chrome_chunks(tel))


# -- JSONL -------------------------------------------------------------------
def iter_jsonl_records(tel: Telemetry):
    """Yield the JSONL export as dicts (``type`` discriminates records):
    the ``trace`` header, whose ``blocks`` are the run blocks' lengths in
    lines, the kernel rows, then each run's record, spans, instants,
    counters and request-table chunks."""
    yield {"type": "trace", "label": str(tel.label), "blocks": [
        1 + len(run.spans) + len(run.instants)
        + sum(map(len, run.samples.values())) + _n_chunks(run)
        for run in tel.runs]}
    for row in tel.kernels.as_records():
        yield {"type": "kernel", **jsonable(row)}
    for run in tel.runs:
        yield {"type": "run", "run": run.index, **run.meta}
        for span in run.spans:
            yield {
                "type": "span", "name": span.name, "run": span.run,
                "device": span.device, "ts": jsonable(span.ts),
                "dur": jsonable(span.dur), "args": span.args,
            }
        for inst in run.instants:
            yield {
                "type": "instant", "name": inst.name, "run": inst.run,
                "device": inst.device, "ts": jsonable(inst.ts),
                "args": inst.args,
            }
        for name, series in run.samples.items():
            for t, v in series:
                yield {"type": "counter", "run": run.index, "name": name,
                       "ts": jsonable(t), "value": jsonable(v)}
        yield from _request_records(run)


def _request_records(run):
    """The run's request table, ``REQUEST_CHUNK`` rows per ``requests``
    record (the first names the tenants; a NaN stamp is ``null``)."""
    table = run.requests
    for start in range(0, _n_chunks(run) * REQUEST_CHUNK, REQUEST_CHUNK):
        record = {"type": "requests", "run": run.index, "start": start}
        if not start:
            record["tenant_names"] = table.tenant_names
        for i, name in enumerate(REQUEST_COLUMNS):
            cells = getattr(table, name)[start:start + REQUEST_CHUNK]
            record[name] = [None if x != x else x for x in cells] \
                if i < FLOAT_COLUMNS else cells
        yield record


def _n_chunks(run) -> int:
    """``requests`` records of ``run``: one at least for a table."""
    if run.requests is None:
        return 0
    return max(1, -(-len(run.requests.arrival) // REQUEST_CHUNK))


def write_jsonl(tel: Telemetry, path: PathLike) -> Path:
    """Write the event stream as JSON Lines to ``path``; returns the path."""
    return save_text(
        path,
        (_encode(record) + "\n" for record in iter_jsonl_records(tel)),
    )


def write_trace_files(
    tel: Telemetry, directory: PathLike, prefix: str = ""
) -> Tuple[Path, Path]:
    """Write both archives of ``tel`` into ``directory``.

    ``<prefix>trace.json`` (Chrome) and ``<prefix>telemetry.jsonl``;
    returns the two paths in that order.
    """
    directory = Path(directory)
    return (
        write_chrome_trace(tel, directory / f"{prefix}trace.json"),
        write_jsonl(tel, directory / f"{prefix}telemetry.jsonl"),
    )
