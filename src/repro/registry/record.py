"""Builders that turn run artifacts into registered run directories.

Each ``record_*`` function describes its runs as :class:`_RunEntry` rows and
hands them to :func:`_register_runs`, which lays out one run directory per
entry under the registry root — ``manifest.json`` (identity, spec, git
state, sim-clock timestamps), ``report.json`` (headline metrics), a train
run's ``train_trace.{json,npz}`` and the telemetry archive — then indexes it
in ``runs.db``. Registration happens *after* artifacts land so a crashed
run never leaves a dangling index row.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.harness.store import save_trace
from repro.harness.traces import TrainingTrace
from repro.registry.index import RUNS_DIRNAME, RunRegistry
from repro.telemetry.analyze import headline_metrics
from repro.telemetry.core import Telemetry
from repro.telemetry.export import write_jsonl
from repro.telemetry.trace_data import TraceData
from repro.utils.serialization import copy_file, jsonable, save_json

__all__ = [
    "new_run_id",
    "git_state",
    "flatten_metrics",
    "record_train_run",
    "record_serve_runs",
    "record_bench_run",
    "record_experiment",
]

#: The telemetry archive filename inside a run directory. Named so that
#: ``load_trace_data(run_dir)`` resolves it (the loader's directory probe).
TELEMETRY_NAME = "telemetry.jsonl"

_RUN_COUNTER = itertools.count()


def new_run_id(
    kind: str, *, algorithm: str = "", dataset: str = "", seed: int = 0
) -> str:
    """A stable, sortable run id: ``<kind>-<YYYYmmdd-HHMMSS>-<digest8>``.

    The digest folds in wall time (ns), pid, and a process-local counter,
    so concurrent registrations from separate processes (or a tight loop
    in one) never collide while the prefix stays human-scannable.
    """
    now_ns = time.time_ns()
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(now_ns / 1e9))
    seedstr = (
        f"{kind}|{algorithm}|{dataset}|{seed}|{now_ns}|{os.getpid()}|"
        f"{next(_RUN_COUNTER)}"
    )
    digest = hashlib.sha256(seedstr.encode("utf-8")).hexdigest()[:8]
    return f"{kind}-{stamp}-{digest}"


def git_state() -> Dict[str, object]:
    """``{"git_commit": sha, "git_dirty": bool}`` of the working directory;
    ``{}`` outside a repo."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()

    try:
        return {
            "git_commit": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain")),
        }
    except (OSError, subprocess.SubprocessError):
        return {}


def flatten_metrics(obj, prefix: str = "") -> Dict[str, float]:
    """Flatten nested numeric leaves into ``a/b/c -> float`` pairs.

    Non-finite values and non-numeric leaves are dropped (the index's
    metrics table only holds values a baseline median can consume);
    sequences are skipped — a train run's per-checkpoint series is its
    ``train_trace``.
    """
    out: Dict[str, float] = {}
    if isinstance(obj, Mapping):
        for key, value in obj.items():
            name = f"{prefix}/{key}" if prefix else str(key)
            out.update(flatten_metrics(value, name))
    elif isinstance(obj, bool):
        if prefix:
            out[prefix] = float(obj)
    elif isinstance(obj, (int, float)):
        value = float(obj)
        if prefix and math.isfinite(value):
            out[prefix] = value
    return out


@dataclass
class _RunEntry:
    """One run for :func:`_register_runs`: identity, headline metrics, and
    what its directory holds beside ``manifest.json`` and ``report.json``."""

    kind: str
    algorithm: str
    headline: Mapping[str, float]
    dataset: str = ""
    n_devices: int = 0
    seed: int = 0
    sim_duration_s: float = 0.0
    #: Manifest fields after the standard ones, in this order.
    extra: Mapping = field(default_factory=dict)
    #: ``report.json`` sections beside ``metrics``.
    report: Mapping = field(default_factory=dict)
    #: Saved as ``train_trace.{json,npz}``.
    trace: Optional[TrainingTrace] = None


def _manifest(
    entry: _RunEntry, run_id: str, trace_path: str, spec, git: Mapping
) -> Dict[str, object]:
    """The ``manifest.json`` payload: identity + provenance for one run
    (``spec`` already through :func:`jsonable`)."""
    manifest: Dict[str, object] = {
        "run_id": run_id,
        "kind": entry.kind,
        "algorithm": entry.algorithm,
        "dataset": entry.dataset,
        "n_devices": int(entry.n_devices),
        "seed": int(entry.seed),
        "created_s": time.time(),
        "sim_duration_s": float(entry.sim_duration_s),
        "path": f"{RUNS_DIRNAME}/{run_id}",
        "trace_path": trace_path,
        **git,
    }
    if spec is not None:
        manifest["spec"] = spec
    manifest.update(jsonable(entry.extra))
    return manifest


def _register_runs(
    registry: RunRegistry,
    entries: Iterable[_RunEntry],
    *,
    telemetry: Optional[Telemetry] = None,
    telemetry_jsonl=None,
    spec=None,
    status: str = "green",
    tags: Sequence[str] = (),
) -> List[str]:
    """Lay out and index one run directory per entry; returns the run ids.

    Git is probed once, whatever the number of entries. The ``telemetry``
    recorder the entries share is archived once, into the first run's
    directory — a byte copy of ``telemetry_jsonl`` when the caller already
    exported it, an encoding of the recorder otherwise — and every
    sibling's ``trace_path`` points there.
    """
    git = git_state()
    spec = None if spec is None else jsonable(spec)
    archive_rel = ""
    run_ids: List[str] = []
    for entry in entries:
        run_id = new_run_id(
            entry.kind, algorithm=entry.algorithm, dataset=entry.dataset,
            seed=entry.seed,
        )
        run_dir = registry.run_dir(run_id)
        if telemetry is not None and not archive_rel:
            if telemetry_jsonl is None:
                write_jsonl(telemetry, run_dir / TELEMETRY_NAME)
            else:
                copy_file(telemetry_jsonl, run_dir / TELEMETRY_NAME)
            archive_rel = f"{RUNS_DIRNAME}/{run_id}/{TELEMETRY_NAME}"
        if entry.trace is not None:
            save_trace(entry.trace, run_dir / "train_trace")
        manifest = _manifest(entry, run_id, archive_rel, spec, git)
        save_json(run_dir / "manifest.json", manifest)
        save_json(run_dir / "report.json", {
            "run_id": run_id,
            "kind": entry.kind,
            "algorithm": entry.algorithm,
            "metrics": dict(sorted(entry.headline.items())),
            **jsonable(entry.report),
        })
        registry.register(manifest, entry.headline, status=status, tags=tags)
        run_ids.append(run_id)
    return run_ids


def _trace_headline(trace: TrainingTrace) -> Dict[str, float]:
    out = {
        "duration_s": trace.total_time,
        "epochs": trace.total_epochs,
        "final_accuracy": trace.final_accuracy,
        "best_accuracy": trace.best_accuracy,
    }
    if trace.points:
        out["updates"] = float(trace.points[-1].updates)
        out["samples"] = float(trace.points[-1].samples)
    membership = getattr(trace, "metadata", {}).get("membership")
    if isinstance(membership, Mapping):
        # Elastic runs carry the event count + final device set even when
        # no telemetry recorder was attached.
        out["n_membership_events"] = float(membership.get("n_events", 0))
        out["final_devices"] = float(membership.get("final_devices", 0))
    return {k: v for k, v in out.items() if math.isfinite(v)}


def _telemetry_headlines(
    telemetry: Optional[Telemetry],
) -> Optional[Dict[int, Dict[str, float]]]:
    """Run index -> ``headline_metrics``, from one normalisation of the recorder
    (a full ``iter_jsonl_records`` pass); the ``TraceData`` dies on return.
    ``None`` for no recorder."""
    if telemetry is None:
        return None
    runs = TraceData.from_telemetry(telemetry).runs
    return {run.index: headline_metrics(run) for run in runs}


def _train_entry(
    trace: TrainingTrace, index: int, headlines, extra: Mapping
) -> _RunEntry:
    """``trace`` as an entry. ``headlines`` is :func:`_telemetry_headlines` of
    the recorder the run went through and ``index`` its run there; ``None``
    means no recorder, so no ``trace_run_index`` in the manifest."""
    indexed = {} if headlines is None else {"trace_run_index": index}
    return _RunEntry(
        "train",
        trace.algorithm,
        {**(headlines or {}).get(index, {}), **_trace_headline(trace)},
        dataset=trace.dataset,
        n_devices=trace.n_devices,
        seed=int(trace.metadata.get("init_seed", 0) or 0),
        sim_duration_s=trace.total_time,
        extra={**indexed, **extra},
        trace=trace,
    )


def record_train_run(
    registry: RunRegistry,
    trace: TrainingTrace,
    *,
    telemetry: Optional[Telemetry] = None,
    spec=None,
) -> str:
    """Register one training run; returns its run_id.

    The trace saves under the run directory as ``train_trace.{json,npz}``.
    A live ``telemetry`` recorder archives to ``telemetry.jsonl`` in the run
    directory.
    """
    entry = _train_entry(trace, 0, _telemetry_headlines(telemetry), {})
    (run_id,) = _register_runs(
        registry, [entry], telemetry=telemetry, spec=spec
    )
    return run_id


def record_serve_runs(
    registry: RunRegistry,
    results: Mapping[str, "object"],
    *,
    telemetry: Optional[Telemetry] = None,
    telemetry_jsonl=None,
    run_indices: Optional[Mapping[str, int]] = None,
    extra: Optional[Mapping] = None,
) -> List[str]:
    """Register one run per serving mode; returns the run_ids in order.

    ``results`` maps mode name -> :class:`~repro.serve.result.ServeResult`.
    A shared ``telemetry`` recorder (the CLI serves every mode into one)
    archives once — into the first run's directory, as a copy of
    ``telemetry_jsonl`` when ``--out`` already exported it — and later runs
    index that archive with their own ``trace_run_index``. ``run_indices``
    overrides the default enumeration order when serve calls and results
    don't line up one-to-one (e.g. the tenants path registers only the
    contended run, which is telemetry run 1).
    """
    entries = [
        _RunEntry(
            "serve",
            f"serve-{mode}",
            result.headline_metrics(),
            n_devices=len(result.per_device),
            sim_duration_s=float(result.report.makespan_s),
            extra={
                "mode": mode,
                "trace_run_index": run_indices[mode] if run_indices else i,
                **(extra or {}),
            },
            report={"serve": result.as_dict()},
        )
        for i, (mode, result) in enumerate(results.items())
    ]
    return _register_runs(
        registry, entries, telemetry=telemetry, telemetry_jsonl=telemetry_jsonl
    )


def record_bench_run(
    registry: RunRegistry,
    name: str,
    results: Mapping,
    *,
    status: str = "green",
) -> str:
    """Register one bench invocation (tagged ``bench:<name>``).

    ``results`` is the bench's results dict; its numeric leaves flatten
    into the metrics table (``sections/gather/speedup`` style), making the
    index the history the CI gates take their baselines from. Pass
    ``status="red"`` when the gate failed so the run is excluded from
    future baselines.
    """
    entry = _RunEntry(
        "bench", name, flatten_metrics(results), report={"results": results}
    )
    (run_id,) = _register_runs(
        registry, [entry], status=status, tags=(f"bench:{name}",)
    )
    return run_id


def record_experiment(
    registry: RunRegistry,
    results: Mapping,
    *,
    spec=None,
    telemetry: Optional[Telemetry] = None,
    telemetry_jsonl=None,
) -> List[str]:
    """Register every ``(algorithm, n_gpus) -> trace`` run of a grid.

    The shared ``telemetry`` recorder (one run per grid entry, in grid
    order) is normalised once for the whole grid, whatever its size, and
    archived as in :func:`record_serve_runs`.
    """
    headlines = _telemetry_headlines(telemetry)
    entries = [
        _train_entry(trace, i, headlines, {"grid_index": i})
        for i, trace in enumerate(results.values())
    ]
    return _register_runs(
        registry, entries, telemetry=telemetry,
        telemetry_jsonl=telemetry_jsonl, spec=spec,
    )
