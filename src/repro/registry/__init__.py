"""Cross-run observability: the per-run artifact layout + SQLite index.

The paper's claims are longitudinal — time-to-accuracy, adaptivity, and
tail-latency numbers only mean something *across* runs — so every train,
serve, and bench invocation can register itself here: a per-run directory
(``manifest.json`` with spec/config/git-state/sim-clock timestamps,
``report.json`` headline metrics, per-step ``metrics.jsonl``, and the
telemetry trace) indexed in one searchable SQLite database (``runs.db``)
with a stable run id, tags, and a flattened metrics table.

Three layers:

- :mod:`repro.registry.index` — :class:`RunRegistry`, the versioned SQLite
  schema (created on open), queries, and ``gc``;
- :mod:`repro.registry.record` — builders that turn a training trace, a
  :class:`~repro.serve.result.ServeResult`, or a bench results dict into a
  registered run directory;
- :mod:`repro.registry.baseline` — history-based regression baselines
  (median of the last *N* green runs, checked-in ``BENCH_*.json`` as the
  seed/fallback) for the CI gates.

Surfaced on the CLI as ``repro runs ls/show/diff/history/gc`` plus
``--registry`` flags on ``repro train/serve/trace`` and the script benches.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "baseline": "BASELINE_WINDOW BaselineResolution history_baseline",
    "index": "SCHEMA_VERSION RunRecord RunRegistry default_registry",
    "record": (
        "flatten_metrics git_state new_run_id record_bench_run "
        "record_experiment record_serve_runs record_train_run"
    ),
})
