"""Persistence for training traces and experiment result sets.

A trace saves as a pair of files: ``<stem>.json`` (identity, metadata,
boundary telemetry) and ``<stem>.npz`` (the checkpoint arrays). The split
keeps the JSON human-readable while bulk numeric data stays binary. A whole
experiment grid saves as a directory with an ``index.json``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.exceptions import DataFormatError
from repro.harness.traces import TracePoint, TrainingTrace
from repro.telemetry.core import Telemetry
from repro.telemetry.export import write_trace_files
from repro.utils.serialization import (
    load_arrays,
    load_json,
    save_arrays,
    save_json,
    to_jsonable,
)

__all__ = ["save_trace", "load_trace", "save_result_set", "load_result_set"]

PathLike = Union[str, Path]

_POINT_FIELDS = ("time_s", "epochs", "updates", "samples", "accuracy", "loss")


def save_trace(
    trace: TrainingTrace,
    stem: PathLike,
    *,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Path, Path]:
    """Save ``trace`` as ``<stem>.json`` + ``<stem>.npz``; return both paths.

    With ``telemetry``, the recorder's event stream rides along as
    ``<stem>.telemetry.jsonl`` plus a Chrome/Perfetto-loadable
    ``<stem>.trace.json``.
    """
    stem = Path(stem)
    if telemetry is not None:
        write_trace_files(telemetry, stem.parent, f"{stem.name}.")
    meta = {
        "algorithm": trace.algorithm,
        "dataset": trace.dataset,
        "n_devices": trace.n_devices,
        "batch_size_history": [list(s) for s in trace.batch_size_history],
        "perturbation_history": list(trace.perturbation_history),
        "merge_branch_history": list(trace.merge_branch_history),
        "staleness_history": list(trace.staleness_history),
        "metadata": _jsonable_metadata(trace.metadata),
        "format_version": 1,
    }
    json_path = save_json(stem.with_suffix(".json"), meta)
    arrays = {
        field: np.asarray([getattr(p, field) for p in trace.points])
        for field in _POINT_FIELDS
    }
    npz_path = save_arrays(stem.with_suffix(".npz"), arrays)
    return json_path, npz_path


def _jsonable_metadata(metadata: Mapping) -> dict:
    """Metadata via :func:`to_jsonable`: ``Path`` values become strings,
    non-finite floats and unconvertible objects are rejected.

    Rejection (rather than the old ``repr`` coercion) keeps the round-trip
    faithful: a value that silently stringifies on save loads back as a
    different type, and a NaN that survives to :func:`save_json` would
    fail there with a far less actionable message.
    """
    out = {}
    for key, value in metadata.items():
        try:
            out[str(key)] = to_jsonable(value)
        except (TypeError, ValueError) as exc:
            raise DataFormatError(
                f"trace metadata entry {key!r} does not survive a JSON "
                f"round-trip: {exc}"
            ) from exc
    return out


def load_trace(stem: PathLike) -> TrainingTrace:
    """Load a trace saved by :func:`save_trace`."""
    stem = Path(stem)
    json_path = stem.with_suffix(".json")
    npz_path = stem.with_suffix(".npz")
    if not json_path.exists() or not npz_path.exists():
        raise DataFormatError(f"no trace at {stem} (.json/.npz pair required)")
    meta = load_json(json_path)
    if meta.get("format_version") != 1:
        raise DataFormatError(
            f"{json_path}: unsupported trace format {meta.get('format_version')!r}"
        )
    arrays = load_arrays(npz_path)
    trace = TrainingTrace(
        algorithm=meta["algorithm"],
        dataset=meta["dataset"],
        n_devices=int(meta["n_devices"]),
        batch_size_history=[tuple(s) for s in meta["batch_size_history"]],
        perturbation_history=[bool(b) for b in meta["perturbation_history"]],
        merge_branch_history=list(meta["merge_branch_history"]),
        staleness_history=[int(s) for s in meta["staleness_history"]],
        metadata=meta.get("metadata", {}),
    )
    n = len(arrays["time_s"])
    for i in range(n):
        trace.record_point(TracePoint(
            time_s=float(arrays["time_s"][i]),
            epochs=float(arrays["epochs"][i]),
            updates=int(arrays["updates"][i]),
            samples=int(arrays["samples"][i]),
            accuracy=float(arrays["accuracy"][i]),
            loss=float(arrays["loss"][i]),
        ))
    return trace


def save_result_set(
    results: Mapping[Tuple[str, int], TrainingTrace],
    directory: PathLike,
    *,
    telemetry: Optional[Telemetry] = None,
) -> Path:
    """Save a ``run_experiment`` result dict into ``directory``.

    Each trace goes to ``<algorithm>_<n>gpu.{json,npz}``; an ``index.json``
    records the key mapping. With ``telemetry`` (the recorder the whole grid
    ran through), the set also gets ``telemetry.jsonl`` and a combined
    ``trace.json`` timeline with one process per run.
    """
    directory = Path(directory)
    index = []
    for (algorithm, n_gpus), trace in results.items():
        stem = directory / f"{algorithm}_{n_gpus}gpu"
        save_trace(trace, stem)
        index.append({"algorithm": algorithm, "n_gpus": n_gpus,
                      "stem": stem.name})
    save_json(directory / "index.json", index)
    if telemetry is not None:
        write_trace_files(telemetry, directory)
    return directory


def load_result_set(directory: PathLike) -> Dict[Tuple[str, int], TrainingTrace]:
    """Load a result set saved by :func:`save_result_set`."""
    directory = Path(directory)
    index_path = directory / "index.json"
    if not index_path.exists():
        raise DataFormatError(f"no index.json in {directory}")
    results: Dict[Tuple[str, int], TrainingTrace] = {}
    for entry in load_json(index_path):
        key = (entry["algorithm"], int(entry["n_gpus"]))
        results[key] = load_trace(directory / entry["stem"])
    return results
