"""Persistence for training traces.

A trace saves as a pair of files: ``<stem>.json`` (identity, metadata,
boundary telemetry) and ``<stem>.npz`` (the checkpoint arrays). The split
keeps the JSON human-readable while bulk numeric data stays binary.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Tuple, Union

import numpy as np

from repro.exceptions import DataFormatError
from repro.harness.traces import Boundary, TracePoint, TrainingTrace
from repro.utils.serialization import (
    load_arrays,
    load_json,
    save_arrays,
    save_json,
    to_jsonable,
)

__all__ = ["save_trace", "load_trace"]

PathLike = Union[str, Path]

_POINT_FIELDS = ("time_s", "epochs", "updates", "samples", "accuracy", "loss")
#: The header's per-boundary columns, one per :class:`Boundary` field.
_BOUNDARY_KEYS = (
    "batch_size_history", "perturbation_history", "merge_branch_history",
    "staleness_history",
)


def save_trace(trace: TrainingTrace, stem: PathLike) -> Tuple[Path, Path]:
    """Save ``trace`` as ``<stem>.json`` + ``<stem>.npz``; return both paths."""
    stem = Path(stem)
    meta = {
        "algorithm": trace.algorithm,
        "dataset": trace.dataset,
        "n_devices": trace.n_devices,
        "batch_size_history": [list(b.batch_sizes) for b in trace.boundaries],
        "perturbation_history": [b.perturbed for b in trace.boundaries],
        "merge_branch_history": [b.branch for b in trace.boundaries],
        "staleness_history": [b.staleness for b in trace.boundaries],
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
    """Load a trace saved by :func:`save_trace`.

    A header that is not a JSON object, lacks a field or holds boundary
    columns of unequal length, and checkpoint arrays of unequal length,
    raise :class:`DataFormatError` naming the file.
    """
    stem = Path(stem)
    json_path = stem.with_suffix(".json")
    npz_path = stem.with_suffix(".npz")
    if not json_path.exists() or not npz_path.exists():
        raise DataFormatError(f"no trace at {stem} (.json/.npz pair required)")
    meta = load_json(json_path)
    if not isinstance(meta, dict):
        raise DataFormatError(
            f"{json_path}: trace header is a JSON {type(meta).__name__}, "
            f"not an object"
        )
    if meta.get("format_version") != 1:
        raise DataFormatError(
            f"{json_path}: unsupported trace format {meta.get('format_version')!r}"
        )
    arrays = load_arrays(npz_path)
    columns = [arrays[field] for field in _POINT_FIELDS]
    shapes = [np.shape(column) for column in columns]
    if len(set(shapes)) != 1 or len(shapes[0]) != 1:
        raise DataFormatError(
            f"{npz_path}: checkpoint arrays {list(_POINT_FIELDS)} have "
            f"shapes {shapes}, not one length"
        )
    try:
        history = [meta[key] for key in _BOUNDARY_KEYS]
        lengths = [len(column) for column in history]
        if len(set(lengths)) != 1:
            raise ValueError(
                f"boundary columns {list(_BOUNDARY_KEYS)} have lengths "
                f"{lengths}, not one length"
            )
        trace = TrainingTrace(
            algorithm=meta["algorithm"],
            dataset=meta["dataset"],
            n_devices=int(meta["n_devices"]),
            boundaries=[
                Boundary(tuple(sizes), bool(perturbed), branch, int(staleness))
                for sizes, perturbed, branch, staleness in zip(*history)
            ],
            metadata=meta.get("metadata", {}),
        )
    except KeyError as exc:
        raise DataFormatError(f"{json_path}: trace header lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{json_path}: malformed trace header: {exc}") from exc
    for time_s, epochs, updates, samples, accuracy, loss in zip(*columns):
        trace.record_point(TracePoint(
            time_s=float(time_s),
            epochs=float(epochs),
            updates=int(updates),
            samples=int(samples),
            accuracy=float(accuracy),
            loss=float(loss),
        ))
    return trace
