"""Structured tracing and per-GPU metrics for every trainer.

The observability layer the paper's claims call for: *where time goes* on
heterogeneous GPUs — per-device step spans, merge and all-reduce rounds,
update-count convergence — captured as one uniform event stream no matter
which of the six training algorithms produced it.

Quickstart::

    from repro import ExperimentSpec, run_experiment
    from repro.telemetry import Telemetry
    from repro.telemetry.export import write_chrome_trace
    from repro.harness.report import render_telemetry_summary

    tel = Telemetry()
    run_experiment(ExperimentSpec(dataset="micro"), telemetry=tel)
    write_chrome_trace(tel, "trace.json")   # open in chrome://tracing
    print(render_telemetry_summary(tel))

Or from the shell: ``python -m repro trace --dataset micro --out out/``.

Components:

- :mod:`repro.telemetry.core` — :class:`Telemetry` (the recorder) and
  :data:`NULL` (the zero-cost disabled sink);
- :mod:`repro.telemetry.events` — event records and the uniform schema;
- :mod:`repro.telemetry.export` — JSONL and Chrome ``trace_event``
  exporters (the Chrome file is written for Perfetto, never read back);
- :mod:`repro.telemetry.trace_data` — the normalized :class:`TraceData`
  view any analysis consumes (live recorder or JSONL archive);
- :mod:`repro.telemetry.analyze` — time attribution and straggler /
  critical-path analysis (``repro analyze``);
- :mod:`repro.telemetry.diagnose` — rule-based convergence findings;
- :mod:`repro.telemetry.compare` — phase-by-phase run comparison
  (``repro compare``);
- :mod:`repro.telemetry.promtext` — Prometheus text exposition of final
  counters/gauges for external scraping.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "analyze": "analyze_report attribute_time critical_path utilization_lanes",
    "compare": "RunComparison compare_runs",
    "core": "NULL NullTelemetry Telemetry",
    "diagnose": "Finding diagnose",
    "events": "InstantEvent RunData SpanEvent",
    "export": "iter_chrome_events write_chrome_trace write_jsonl",
    "promtext": "to_promtext write_promtext",
    "trace_data": "TraceData load_trace_data",
})
