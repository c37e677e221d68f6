"""Serialization of experiment artifacts (traces, configs, results).

Artifacts are saved as JSON for metadata plus ``.npz`` for bulk arrays, so
results survive library-version changes and can be inspected with standard
tools. NumPy scalars/arrays are converted to built-in types on the way out.

This is the one module under ``src/repro`` that creates a file or reads a
whole JSON / npz document (DESIGN.md §16; ``tests/test_no_monoliths.py``
holds it): every writer replaces its target whole through
:func:`_replace`, every reader raises :class:`DataFormatError` naming the
path.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from pathlib import Path, PurePath
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Mapping, Union

from repro.exceptions import DataFormatError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "to_jsonable",
    "jsonable",
    "save_json",
    "save_text",
    "save_arrays",
    "copy_file",
    "load_json",
    "load_arrays",
]

PathLike = Union[str, Path]


def _make_walker(strict: bool):
    """The one deep JSON walker, bound to one of its two leaf policies.

    Both policies convert dataclasses, numpy scalars/arrays, paths,
    mappings, sets, and sequences into built-ins; they differ only at the
    leaves no JSON encoder can take. Bound once at import (no per-call
    ``strict`` argument, no wrapper frame): the lenient walker runs per
    field of every span the telemetry exporters and the registry write.
    """

    def walk(obj: Any) -> Any:
        # Primitives first: they are nearly every call on the export path.
        if obj is None or isinstance(obj, (str, bool, int)):
            return obj
        if isinstance(obj, float):
            if math.isfinite(obj):
                return obj
            if strict:
                raise ValueError(
                    f"non-finite float {obj!r} is not strict-JSON "
                    "serializable; replace it with None (or drop the field) "
                    "before saving"
                )
            return None
        if isinstance(obj, (dict, Mapping)):  # dict first: skips the ABC check
            return {str(k): walk(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple, set, frozenset)):
            return [walk(v) for v in obj]
        # A process that never loaded numpy holds no numpy value, so the
        # read side converts its reports without importing it.
        np = sys.modules.get("numpy")
        if np is not None:
            if isinstance(obj, np.bool_):
                return bool(obj)
            if isinstance(obj, np.integer):
                return int(obj)
            if isinstance(obj, np.floating):
                return walk(float(obj))
            if isinstance(obj, np.ndarray):
                return walk(obj.tolist())
        if isinstance(obj, PurePath):
            return str(obj)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            # A loop, not a comprehension: a comprehension closing over
            # ``obj`` would turn it into a cell variable and slow every call.
            out = {}
            for f in dataclasses.fields(obj):
                out[f.name] = walk(getattr(obj, f.name))
            return out
        if strict:
            raise TypeError(
                f"cannot serialize object of type {type(obj).__name__}: {obj!r}"
            )
        return str(obj)

    return walk


#: ``to_jsonable(obj)`` — strict conversion for artifact headers and trace
#: metadata. Unknown objects raise ``TypeError`` (silent stringification
#: would let corrupted artifacts pass unnoticed) and non-finite floats raise
#: ``ValueError``: bare ``NaN``/``Infinity`` tokens are invalid JSON, so a
#: header carrying one would not round-trip through a strict parser. Clean
#: — or drop — such values at the call site.
to_jsonable = _make_walker(strict=True)

#: ``jsonable(value)`` — lenient conversion for telemetry exports, analysis
#: reports and registry manifests, which must parse under
#: ``allow_nan=False`` no matter what callers stuffed into span args or run
#: metadata: non-finite floats become ``None``, anything non-convertible
#: falls back to ``str``.
jsonable = _make_walker(strict=False)


def _replace(path: PathLike, write: Callable[[Path], None]) -> Path:
    """Create or replace ``path`` whole: ``write(tmp)`` fills a temp sibling
    and ``os.replace`` moves it over ``path``.

    A reader, or a crash at any point, finds the previous file or the new
    one, never a partial one. Nothing is fsynced: this is atomicity against
    partial files, not durability across power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # already moved unless a step raised
    return path


def save_text(path: PathLike, chunks: Iterable[str]) -> Path:
    """Write already-encoded text ``chunks`` (JSONL lines as they are
    produced, or one whole document) to ``path``."""

    def write(tmp: Path) -> None:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)

    return _replace(path, write)


def save_json(path: PathLike, obj: Any) -> Path:
    """Write ``obj`` (converted via :func:`to_jsonable`) to ``path``,
    indented by two spaces."""
    text = json.dumps(to_jsonable(obj), indent=2, allow_nan=False)
    return save_text(path, (text, "\n"))


def save_arrays(path: PathLike, arrays: Mapping[str, np.ndarray]) -> Path:
    """Save named arrays to a compressed ``.npz`` at exactly ``path``."""
    import numpy as np

    def write(tmp: Path) -> None:
        with tmp.open("wb") as fh:
            np.savez_compressed(fh, **arrays)

    return _replace(path, write)


def copy_file(source: PathLike, path: PathLike) -> Path:
    """Copy ``source`` byte for byte to ``path``."""
    import shutil

    return _replace(path, lambda tmp: shutil.copyfile(source, tmp))


def load_json(path: PathLike) -> Any:
    """Read the JSON document at ``path``.

    A missing, unreadable, truncated or garbled file raises
    :class:`DataFormatError` naming ``path``.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


class _Members(dict):
    """What :func:`load_arrays` returns: asking for an array the file does
    not hold is a :class:`DataFormatError` naming the file."""

    def __init__(self, path: PathLike) -> None:
        super().__init__()
        self.path = path

    def __missing__(self, key):
        raise DataFormatError(f"{self.path}: no array named {key!r}")


def load_arrays(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a ``.npz`` produced by :func:`save_arrays` into a dict.

    A missing, truncated or garbled file, and a later lookup of a member it
    lacks, raise :class:`DataFormatError` naming ``path``.
    """
    import zipfile
    import zlib

    import numpy as np

    members = _Members(path)
    try:
        with np.load(Path(path)) as data:
            for key in data.files:
                members[key] = data[key]
    except (
        # What zipfile, zlib and the npy header parser raise on cut or
        # flipped bytes (RuntimeError: a flag bit reading as "encrypted" or
        # as a compression method zipfile does not implement).
        OSError, ValueError, EOFError, RuntimeError,
        zipfile.BadZipFile, zlib.error,
    ) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return members
