"""Builders that turn run artifacts into registered run directories.

Each ``record_*`` function lays out one run directory under the registry
root — ``manifest.json`` (identity, spec/config, git state, sim-clock
timestamps), ``report.json`` (headline metrics), ``metrics.jsonl``
(per-step samples), and the telemetry trace — then indexes it in
``runs.db``. Registration happens *after* artifacts land so a crashed run
never leaves a dangling index row.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.harness.store import save_trace
from repro.harness.traces import TrainingTrace
from repro.registry.index import RUNS_DIRNAME, RunRegistry
from repro.telemetry.analyze import headline_metrics
from repro.telemetry.core import Telemetry
from repro.telemetry.export import write_jsonl
from repro.telemetry.trace_data import TraceData
from repro.utils.serialization import jsonable, save_json

__all__ = [
    "new_run_id",
    "git_state",
    "build_manifest",
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


def git_state(cwd=None) -> Dict[str, object]:
    """``{"git_commit": sha, "git_dirty": bool}``; ``{}`` outside a repo."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        porcelain = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    return {"git_commit": commit, "git_dirty": bool(porcelain.strip())}


def flatten_metrics(obj, prefix: str = "") -> Dict[str, float]:
    """Flatten nested numeric leaves into ``a/b/c -> float`` pairs.

    Non-finite values and non-numeric leaves are dropped (the index's
    metrics table only holds values a baseline median can consume);
    sequences are skipped — per-step series belong in ``metrics.jsonl``.
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


def build_manifest(
    kind: str,
    run_id: str,
    *,
    algorithm: str = "",
    dataset: str = "",
    n_devices: int = 0,
    seed: int = 0,
    sim_duration_s: float = 0.0,
    trace_path: str = "",
    spec=None,
    config=None,
    extra: Optional[Mapping] = None,
    git: Optional[Mapping] = None,
) -> Dict[str, object]:
    """The ``manifest.json`` payload: identity + provenance for one run.

    ``git`` is a :func:`git_state` result probed by a caller that registers
    several runs (two subprocesses per probe); ``None`` probes here.
    """
    manifest: Dict[str, object] = {
        "run_id": run_id,
        "kind": kind,
        "algorithm": algorithm,
        "dataset": dataset,
        "n_devices": int(n_devices),
        "seed": int(seed),
        "created_s": time.time(),
        "sim_duration_s": float(sim_duration_s),
        "path": f"{RUNS_DIRNAME}/{run_id}",
        "trace_path": trace_path,
    }
    manifest.update(git_state() if git is None else git)
    if spec is not None:
        manifest["spec"] = jsonable(spec)
    if config is not None:
        manifest["config"] = jsonable(config)
    if extra:
        manifest.update(jsonable(extra))
    return manifest


def _write_run_files(
    registry: RunRegistry,
    run_dir: Path,
    manifest: Mapping,
    headline: Mapping[str, float],
    report_extra: Optional[Mapping] = None,
) -> None:
    save_json(run_dir / "manifest.json", manifest)
    report = {
        "run_id": manifest["run_id"],
        "kind": manifest["kind"],
        "algorithm": manifest.get("algorithm", ""),
        "metrics": dict(sorted(headline.items())),
    }
    if report_extra:
        report.update(jsonable(report_extra))
    save_json(run_dir / "report.json", report)


def _archive_telemetry(telemetry: Telemetry, run_dir: Path, exported) -> None:
    """The run directory's ``telemetry.jsonl``: ``exported`` (a JSONL of
    this recorder the caller already wrote) copied byte for byte through a
    temp file + rename, else the recorder encoded here."""
    path = run_dir / TELEMETRY_NAME
    if exported is None:
        write_jsonl(telemetry, path)
        return
    tmp = path.with_name(path.name + ".tmp")
    shutil.copyfile(exported, tmp)
    os.replace(tmp, path)


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


def _telemetry_headlines(telemetry: Telemetry) -> Dict[int, Dict[str, float]]:
    """Run index -> ``headline_metrics``, from one normalisation of the recorder
    (a full ``iter_jsonl_records`` pass); the ``TraceData`` dies on return."""
    runs = TraceData.from_telemetry(telemetry).runs
    return {run.index: headline_metrics(run) for run in runs}


def record_train_run(
    registry: RunRegistry,
    trace: TrainingTrace,
    *,
    telemetry: Optional[Telemetry] = None,
    telemetry_path: Optional[str] = None,
    telemetry_run: int = 0,
    telemetry_headline: Optional[Mapping[str, float]] = None,
    telemetry_jsonl=None,
    spec=None,
    tags: Sequence[str] = (),
    extra: Optional[Mapping] = None,
    git: Optional[Mapping] = None,
) -> str:
    """Register one training run; returns its run_id.

    The trace saves under the run directory as ``train_trace.{json,npz}``
    and per-checkpoint samples stream to ``metrics.jsonl``. A live
    ``telemetry`` recorder archives to ``telemetry.jsonl`` in the run
    directory; alternatively ``telemetry_path`` (registry-relative) points
    at an archive shared with sibling runs of a grid, with
    ``telemetry_run`` naming this run's index inside it. A grid, which
    normalises ``telemetry`` once for all runs, passes ``telemetry_headline``
    and its one :func:`git_state` probe as ``git``. ``telemetry_jsonl``
    names an export of ``telemetry`` already on disk (``repro trace
    --out``): the archive is then a copy of it, not a second encoding.
    """
    seed = int(trace.metadata.get("init_seed", 0) or 0)
    run_id = new_run_id(
        "train", algorithm=trace.algorithm, dataset=trace.dataset, seed=seed
    )
    run_dir = registry.run_dir(run_id)
    run_dir.mkdir(parents=True, exist_ok=True)

    save_trace(trace, run_dir / "train_trace")
    with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for point in trace.points:
            fh.write(
                json.dumps(
                    {
                        "time_s": point.time_s,
                        "epochs": point.epochs,
                        "updates": point.updates,
                        "samples": point.samples,
                        "accuracy": _finite_or_none(point.accuracy),
                        "loss": _finite_or_none(point.loss),
                    },
                    sort_keys=True,
                    allow_nan=False,
                )
                + "\n"
            )

    trace_rel = telemetry_path or ""
    if telemetry is not None:
        if telemetry_path is None:
            _archive_telemetry(telemetry, run_dir, telemetry_jsonl)
            trace_rel = f"{RUNS_DIRNAME}/{run_id}/{TELEMETRY_NAME}"
        if telemetry_headline is None:
            telemetry_headline = _telemetry_headlines(telemetry).get(telemetry_run)
    headline: Dict[str, float] = dict(telemetry_headline or {})
    headline.update(_trace_headline(trace))

    manifest = build_manifest(
        "train",
        run_id,
        algorithm=trace.algorithm,
        dataset=trace.dataset,
        n_devices=trace.n_devices,
        seed=seed,
        sim_duration_s=trace.total_time,
        trace_path=trace_rel,
        spec=spec,
        extra=dict(
            {"trace_run_index": telemetry_run} if trace_rel else {},
            **dict(extra or {}),
        ),
        git=git,
    )
    _write_run_files(registry, run_dir, manifest, headline)
    registry.register(manifest, headline, tags=tags)
    return run_id


def record_serve_runs(
    registry: RunRegistry,
    results: Mapping[str, "object"],
    *,
    telemetry: Optional[Telemetry] = None,
    telemetry_jsonl=None,
    run_indices: Optional[Mapping[str, int]] = None,
    spec=None,
    tags: Sequence[str] = (),
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
    run_ids: List[str] = []
    archive_rel = ""
    git = git_state()
    for i, (mode, result) in enumerate(results.items()):
        run_index = run_indices[mode] if run_indices else i
        run_id = new_run_id("serve", algorithm=f"serve-{mode}")
        run_dir = registry.run_dir(run_id)
        run_dir.mkdir(parents=True, exist_ok=True)

        if telemetry is not None and not archive_rel:
            _archive_telemetry(telemetry, run_dir, telemetry_jsonl)
            archive_rel = f"{RUNS_DIRNAME}/{run_id}/{TELEMETRY_NAME}"

        headline = result.headline_metrics()
        report = result.as_dict()
        with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
            for device, count in sorted(result.per_device.items()):
                fh.write(
                    json.dumps(
                        {"device": device, "requests": count},
                        sort_keys=True,
                    )
                    + "\n"
                )

        manifest = build_manifest(
            "serve",
            run_id,
            algorithm=f"serve-{mode}",
            n_devices=len(result.per_device),
            sim_duration_s=float(result.report.makespan_s),
            trace_path=archive_rel,
            spec=spec,
            extra=dict(
                {"mode": mode, "trace_run_index": run_index},
                **dict(extra or {}),
            ),
            git=git,
        )
        _write_run_files(
            registry, run_dir, manifest, headline, report_extra={"serve": report}
        )
        registry.register(manifest, headline, tags=tags)
        run_ids.append(run_id)
    return run_ids


def record_bench_run(
    registry: RunRegistry,
    name: str,
    results: Mapping,
    *,
    status: str = "green",
    tags: Sequence[str] = (),
    extra: Optional[Mapping] = None,
) -> str:
    """Register one bench invocation (tagged ``bench:<name>``).

    ``results`` is the bench's results dict; its numeric leaves flatten
    into the metrics table (``sections/gather/speedup`` style), making the
    index the history the CI gates take their baselines from. Pass
    ``status="red"`` when the gate failed so the run is excluded from
    future baselines.
    """
    run_id = new_run_id("bench", algorithm=name)
    run_dir = registry.run_dir(run_id)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(
        "bench", run_id, algorithm=name, extra=extra
    )
    metrics = flatten_metrics(results)
    _write_run_files(
        registry, run_dir, manifest, metrics, report_extra={"results": results}
    )
    registry.register(
        manifest, metrics, status=status, tags=(f"bench:{name}", *tags)
    )
    return run_id


def record_experiment(
    registry: RunRegistry,
    results: Mapping,
    *,
    spec=None,
    telemetry: Optional[Telemetry] = None,
    telemetry_jsonl=None,
    tags: Sequence[str] = (),
) -> List[str]:
    """Register every ``(algorithm, n_gpus) -> trace`` run of a grid.

    The shared ``telemetry`` recorder (one run per grid entry, in grid
    order) archives into the first run's directory (``telemetry_jsonl`` as
    in :func:`record_train_run`); siblings point there. The recorder is
    normalised and git is probed once for the whole grid, whatever its size.
    """
    run_ids: List[str] = []
    archive_rel: Optional[str] = None
    git = git_state()
    headlines = {} if telemetry is None else _telemetry_headlines(telemetry)
    for i, ((algorithm, n_gpus), trace) in enumerate(results.items()):
        run_id = record_train_run(
            registry,
            trace,
            telemetry=telemetry,
            telemetry_path=archive_rel,
            telemetry_run=i,
            telemetry_headline=headlines.get(i, {}),
            telemetry_jsonl=telemetry_jsonl,
            spec=spec,
            tags=tags,
            extra={"grid_index": i},
            git=git,
        )
        if telemetry is not None and archive_rel is None:
            archive_rel = f"{RUNS_DIRNAME}/{run_id}/{TELEMETRY_NAME}"
        run_ids.append(run_id)
    return run_ids


def _finite_or_none(value: float) -> Optional[float]:
    value = float(value)
    return value if math.isfinite(value) else None
