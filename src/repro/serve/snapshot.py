"""Versioned model snapshots: the train → deploy hand-off format.

A snapshot is two sibling files sharing a stem:

- ``<stem>.snapshot.json`` — a strict-JSON header: format tag, version,
  the :class:`~repro.sparse.mlp.MLPArchitecture` dims, the flat-state
  parameter spec, an integrity checksum (parameter count + L2 norm), and
  free-form ``meta`` (dataset name, label count, training provenance);
- ``<stem>.snapshot.npz`` — the parameters themselves, written by
  :meth:`~repro.sparse.model_state.ModelState.save` (one float32 array per
  named parameter), so the round-trip is **bit-identical**.

The JSON header is the part other tooling reads (a registry, a dashboard, a
deploy script); the npz is opaque bulk. Loading validates format, version,
spec/architecture consistency, and the checksum before handing back a state,
raising :class:`~repro.exceptions.SnapshotError` on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.exceptions import DataFormatError, ModelStateError, SnapshotError
from repro.sparse.mlp import MLPArchitecture
from repro.sparse.model_state import ModelState
from repro.utils.serialization import load_json, save_json

__all__ = ["ModelSnapshot", "SNAPSHOT_FORMAT", "SNAPSHOT_VERSION"]

SNAPSHOT_FORMAT = "repro-model-snapshot"
SNAPSHOT_VERSION = 1

#: Relative tolerance for the header's L2-norm checksum. The npz round-trip
#: is bit-exact, so the norm recomputes to the identical float64 — the slack
#: only guards against a header edited by hand with lower-precision digits.
_NORM_RTOL = 1e-9


def _stem(path: Union[str, Path]) -> Path:
    """Normalize ``model``, ``model.snapshot.json``, or ``model.snapshot.npz``
    to the shared stem path ``model``."""
    path = Path(path)
    name = path.name
    for suffix in (".snapshot.json", ".snapshot.npz"):
        if name.endswith(suffix):
            return path.with_name(name[: -len(suffix)])
    return path


@dataclass
class ModelSnapshot:
    """A trained model plus everything needed to serve it."""

    arch: MLPArchitecture
    state: ModelState
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = tuple((n, tuple(s)) for n, s in self.arch.parameter_spec())
        if self.state.spec != expected:
            raise SnapshotError(
                f"state spec {self.state.spec} does not match the "
                f"architecture's parameter spec {expected}"
            )

    # -- writing -------------------------------------------------------------
    def save(self, stem: Union[str, Path]) -> Path:
        """Write ``<stem>.snapshot.json`` + ``<stem>.snapshot.npz``.

        Returns the header path. ``stem`` may also be spelled with either
        snapshot suffix; it is stripped.
        """
        stem = _stem(stem)
        npz_path = stem.with_name(stem.name + ".snapshot.npz")
        header_path = stem.with_name(stem.name + ".snapshot.json")
        self.state.save(npz_path)
        header = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "arch": {
                "n_features": self.arch.n_features,
                "n_labels": self.arch.n_labels,
                "hidden": list(self.arch.hidden),
            },
            "spec": [[name, list(shape)] for name, shape in self.state.spec],
            "checksum": {
                "n_params": self.state.n_params,
                "l2_norm": self.state.l2_norm(),
            },
            "arrays": npz_path.name,
            "meta": dict(self.meta),
        }
        return save_json(header_path, header)

    # -- reading -------------------------------------------------------------
    @classmethod
    def load(cls, stem: Union[str, Path]) -> "ModelSnapshot":
        """Load and validate a snapshot saved by :meth:`save`."""
        stem = _stem(stem)
        header_path = stem.with_name(stem.name + ".snapshot.json")
        if not header_path.exists():
            raise SnapshotError(f"no snapshot header at {header_path}")
        try:
            header = load_json(header_path)
        except DataFormatError as exc:
            raise SnapshotError(str(exc)) from exc
        if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"{header_path} is not a {SNAPSHOT_FORMAT} header"
            )
        version = header.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{header_path} has snapshot version {version!r}; this "
                f"library reads version {SNAPSHOT_VERSION}"
            )
        try:
            arch = MLPArchitecture(
                n_features=int(header["arch"]["n_features"]),
                n_labels=int(header["arch"]["n_labels"]),
                hidden=tuple(int(h) for h in header["arch"]["hidden"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"{header_path} has a malformed arch section: {exc}"
            ) from exc

        arrays = header.get("arrays", stem.name + ".snapshot.npz")
        if arrays in ("", "..") or Path(str(arrays)).name != arrays:
            raise SnapshotError(f"{header_path}: arrays {arrays!r} is not a file name")
        npz_path = header_path.with_name(arrays)
        if not npz_path.exists():
            raise SnapshotError(f"snapshot arrays missing: {npz_path}")
        try:
            state = ModelState.load(npz_path)
        except (DataFormatError, ModelStateError) as exc:
            raise SnapshotError(f"snapshot arrays are unreadable: {exc}") from exc

        header_spec = tuple(
            (name, tuple(int(d) for d in shape))
            for name, shape in header.get("spec", [])
        )
        if header_spec != state.spec:
            raise SnapshotError(
                f"header spec {header_spec} disagrees with the arrays' spec "
                f"{state.spec} — mixed-up snapshot files?"
            )

        checksum = header.get("checksum", {})
        n_params = checksum.get("n_params")
        if n_params != state.n_params:
            raise SnapshotError(
                f"checksum n_params={n_params} but arrays hold "
                f"{state.n_params} parameters"
            )
        expected_norm = checksum.get("l2_norm")
        actual_norm = state.l2_norm()
        if expected_norm is None or abs(actual_norm - expected_norm) > (
            _NORM_RTOL * max(1.0, abs(expected_norm))
        ):
            raise SnapshotError(
                f"checksum L2 norm {expected_norm!r} does not match the "
                f"arrays' norm {actual_norm!r} — corrupted snapshot?"
            )
        meta = header.get("meta", {})
        return cls(arch=arch, state=state, meta=dict(meta) if meta else {})

    # -- convenience ---------------------------------------------------------
    @property
    def n_params(self) -> int:
        """Total scalar parameter count."""
        return self.state.n_params

    def describe(self) -> dict:
        """Header-shaped summary (without re-reading files)."""
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "n_features": self.arch.n_features,
            "n_labels": self.arch.n_labels,
            "hidden": list(self.arch.hidden),
            "n_params": self.n_params,
            "meta": dict(self.meta),
        }
