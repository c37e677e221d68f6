"""Prometheus text exposition of a trace's final counters and gauges.

External scrapers (a Pushgateway, a CI dashboard, a node_exporter textfile
collector) speak the Prometheus exposition format; this module renders the
*final* value of every counter/gauge, per-span simulated-time totals, and
the host-side kernel profile in that format. One call, one string, no
Prometheus client dependency::

    from repro.telemetry import load_trace_data, to_promtext
    print(to_promtext(load_trace_data("run.telemetry.jsonl")))

Sample output line::

    repro_updates_total{run="0",device="0"} 42
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from repro.telemetry.analyze import busy_and_gap_idle
from repro.telemetry.events import COUNTER_UPDATES, span_totals, split_device_key
from repro.telemetry.trace_data import TraceData
from repro.utils.serialization import save_text

__all__ = ["to_promtext", "write_promtext"]

#: Series names that are cumulative counters (exported with ``_total``).
COUNTER_NAMES = frozenset({COUNTER_UPDATES})

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _metric_name(name: str) -> str:
    cleaned = _NAME_RE.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"repro_{cleaned}"


def _label_value(value: object) -> str:
    text = str(value)
    for raw, escaped in _LABEL_ESCAPES.items():
        text = text.replace(raw, escaped)
    return text


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _render_labels(labels: Dict[str, object]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_label_value(value)}"' for key, value in labels.items()
    )
    return "{" + body + "}"


def to_promtext(data: TraceData, *, run: Optional[int] = None,
                run_id: Optional[str] = None) -> str:
    """Render ``data`` in the Prometheus text exposition format (0.0.4):
    every run, or only the one at index ``run`` (what ``analyze`` read).

    ``run_id`` (a registry run id) is stamped as the first label on every
    sample so scrapes from multiple runs land in one Prometheus without
    colliding — the ``run`` label only disambiguates runs *within* one
    recorded trace.
    """
    runs = data.runs if run is None else [data.run(run)]
    #: Metric family -> (TYPE, HELP, samples), in first-sample order.
    families: Dict[str, Tuple[str, str, List[Tuple[dict, float]]]] = {}

    def add(name: str, kind: str, help_text: str, labels: dict, value) -> None:
        family = families.setdefault(name, (kind, help_text, []))
        family[2].append((labels, float(value)))

    for run in runs:
        labels: Dict[str, object] = {"run": run.index}
        for key in ("algorithm", "dataset", "n_devices"):
            if key in run.meta:
                labels[key] = run.meta[key]
        add("repro_run_info", "gauge",
            "Run identity; labels carry algorithm/dataset/device count.",
            labels, 1.0)
    for run in runs:
        add("repro_run_span_seconds", "gauge",
            "Simulated seconds covered by the run span.",
            {"run": run.index}, run.duration())

    # Final value of every counter/gauge series.
    for run in runs:
        for key, series in run.samples.items():
            if not series:
                continue
            device, name = split_device_key(key)
            kind = "counter" if name in COUNTER_NAMES else "gauge"
            labels = {"run": run.index}
            if device is not None:
                labels["device"] = device
            add(_metric_name(name) + ("_total" if kind == "counter" else ""),
                kind, f"Final recorded value of the '{name}' {kind}.",
                labels, series[-1][1])

    # Per-span simulated time: the attribution table, scrape-ready.
    for run in runs:
        totals = span_totals(run.spans, by_device=True)
        for (name, device), (seconds, count) in totals.items():
            labels = {"run": run.index, "span": name}
            if device is not None:
                labels["device"] = device
            add("repro_span_seconds_total", "counter",
                "Total simulated seconds spent in each span kind.",
                labels, seconds)
            add("repro_span_count_total", "counter",
                "Number of completed spans of each kind.", labels, count)

    # Busy and gap-idle seconds per device, as attribution derives them.
    for run in runs:
        for device, (busy_s, gap_s) in busy_and_gap_idle(run).items():
            labels = {"run": run.index, "device": device}
            add("repro_device_busy_seconds_total", "counter",
                "Simulated seconds each device spent computing steps.",
                labels, busy_s)
            add("repro_device_gap_idle_seconds_total", "counter",
                "Simulated seconds of gaps between consecutive compute spans.",
                labels, gap_s)

    # Host-side kernel profile (wall clock, aggregated over the recorder).
    for row in data.kernels:
        labels = {"kernel": row.get("kernel", "unknown")}
        add("repro_kernel_calls_total", "counter",
            "Host-side kernel invocation counts.", labels, row.get("calls", 0))
        add("repro_kernel_host_seconds_total", "counter",
            "Host-side wall seconds spent in each kernel.",
            labels, row.get("host_s", 0.0))

    stamp = {} if run_id is None else {"run_id": run_id}
    lines: List[str] = []
    for name, (kind, help_text, samples) in families.items():
        lines += [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
        for labels, value in samples:
            labels = _render_labels({**stamp, **labels})
            lines.append(f"{name}{labels} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_promtext(data: TraceData, path, *, run: Optional[int] = None,
                   run_id: Optional[str] = None) -> "Path":
    """Write :func:`to_promtext` output to ``path``; returns the path."""
    return save_text(path, (to_promtext(data, run=run, run_id=run_id),))
