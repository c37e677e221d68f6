"""Serialization of experiment artifacts (traces, configs, results).

Artifacts are saved as JSON for metadata plus ``.npz`` for bulk arrays, so
results survive library-version changes and can be inspected with standard
tools. NumPy scalars/arrays are converted to built-in types on the way out.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path, PurePath
from typing import TYPE_CHECKING, Any, Dict, Mapping, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "to_jsonable",
    "jsonable",
    "save_json",
    "load_json",
    "save_arrays",
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


def save_json(path: PathLike, obj: Any, *, indent: int = 2) -> Path:
    """Write ``obj`` (converted via :func:`to_jsonable`) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(to_jsonable(obj), indent=indent, allow_nan=False) + "\n"
    )
    return path


def load_json(path: PathLike) -> Any:
    """Read JSON from ``path``."""
    return json.loads(Path(path).read_text())


def save_arrays(path: PathLike, arrays: Dict[str, np.ndarray]) -> Path:
    """Save named arrays to a compressed ``.npz`` at ``path``."""
    import numpy as np

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def load_arrays(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a ``.npz`` produced by :func:`save_arrays` into a dict."""
    import numpy as np

    with np.load(Path(path)) as data:
        return {key: data[key] for key in data.files}
