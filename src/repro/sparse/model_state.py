"""Flat-buffer model state with named parameter views.

A replica's parameters live in **one contiguous float32 vector**; the named
parameters (``W1``, ``b1``, ...) are reshaped *views* into it. This is the
HPC-idiomatic layout (views, not copies — see the optimization guide):

- replica algebra (averaging, axpy, norms) is a single vectorized op on the
  flat buffer — exactly what Algorithm 2's merge needs;
- the all-reduce collectives in :mod:`repro.comm` chunk the flat vector
  without any gather/scatter bookkeeping;
- per-layer math still addresses parameters by name with zero overhead.
"""

from __future__ import annotations

import json
from math import prod
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ModelStateError
from repro.utils.serialization import load_arrays, save_arrays

__all__ = ["ParameterSpec", "ModelState", "weighted_average"]

ParameterSpec = Tuple[str, Tuple[int, ...]]


class ModelState:
    """Named parameters backed by a single contiguous float32 vector.

    Construct via :meth:`build` (zeros) or :meth:`from_vector`. Views are
    exposed through item access: ``state["W1"]`` is a writable array whose
    memory *is* a slice of ``state.vector``.
    """

    __slots__ = ("spec", "vector", "_views")

    def __init__(self, spec: Sequence[ParameterSpec], vector: np.ndarray) -> None:
        size = sum(prod(shape) for _, shape in spec)
        if vector.ndim != 1 or vector.size != size:
            raise ModelStateError(
                f"backing vector has size {vector.size}, spec requires {size}"
            )
        if vector.dtype != np.float32:
            raise ModelStateError(f"backing vector must be float32, got {vector.dtype}")
        if not vector.flags.c_contiguous:
            raise ModelStateError("backing vector must be C-contiguous")
        self.spec: Tuple[ParameterSpec, ...] = tuple(
            (name, tuple(shape)) for name, shape in spec
        )
        names = [name for name, _ in self.spec]
        if len(set(names)) != len(names):
            raise ModelStateError(f"duplicate parameter names in spec: {names}")
        self.vector = vector
        self._views: Dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in self.spec:
            count = prod(shape)
            self._views[name] = vector[offset:offset + count].reshape(shape)
            offset += count

    # -- construction -------------------------------------------------------
    @classmethod
    def build(cls, spec: Sequence[ParameterSpec]) -> "ModelState":
        """A zero-initialized state for ``spec``."""
        size = sum(prod(shape) for _, shape in spec)
        return cls(spec, np.zeros(size, dtype=np.float32))

    @classmethod
    def from_vector(cls, spec: Sequence[ParameterSpec], vector: np.ndarray) -> "ModelState":
        """Wrap an existing flat vector (no copy)."""
        return cls(spec, np.ascontiguousarray(vector, dtype=np.float32))

    # -- persistence --------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the state to a compressed ``.npz`` at ``path``.

        Each named parameter is stored as its own float32 array plus a
        ``__spec__`` entry recording the layout order, so :meth:`load`
        reconstructs the flat buffer bit-identically (npz stores raw array
        bytes — compression is lossless).
        """
        arrays: Dict[str, np.ndarray] = {
            name: self._views[name] for name, _ in self.spec
        }
        if "__spec__" in arrays:
            raise ModelStateError("parameter name '__spec__' is reserved")
        spec_json = json.dumps([[name, list(shape)] for name, shape in self.spec])
        return save_arrays(path, {"__spec__": np.array(spec_json), **arrays})

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ModelState":
        """Reconstruct a state saved by :meth:`save` (bit-identical).

        An unreadable file is :func:`load_arrays`'s ``DataFormatError``; a
        readable archive of the wrong layout is a :class:`ModelStateError`.
        """
        data = load_arrays(path)
        if "__spec__" not in data:
            raise ModelStateError(
                f"{path} is not a ModelState archive (missing __spec__)"
            )
        spec_raw = json.loads(str(data["__spec__"]))
        spec: List[ParameterSpec] = [
            (name, tuple(int(d) for d in shape)) for name, shape in spec_raw
        ]
        missing = [name for name, _ in spec if name not in data]
        if missing:
            raise ModelStateError(
                f"{path} is missing parameter arrays: {missing}"
            )
        state = cls.build(spec)
        for name, shape in spec:
            array = data[name]
            if tuple(array.shape) != shape:
                raise ModelStateError(
                    f"parameter {name!r} in {path} has shape "
                    f"{tuple(array.shape)}, spec says {shape}"
                )
            np.copyto(state._views[name], array, casting="same_kind")
        return state

    # -- access ------------------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._views[name]
        except KeyError:
            raise ModelStateError(
                f"unknown parameter {name!r}; have {list(self._views)}"
            ) from None

    def names(self) -> List[str]:
        """Parameter names in layout order."""
        return [name for name, _ in self.spec]

    @property
    def n_params(self) -> int:
        """Total scalar parameter count (the paper's model dimensionality)."""
        return self.vector.size

    @property
    def nbytes(self) -> int:
        """Size of the replica in bytes (what model transfer moves)."""
        return self.vector.nbytes

    # -- replica algebra ------------------------------------------------------
    def copy(self) -> "ModelState":
        """Deep copy (new backing vector)."""
        return ModelState(self.spec, self.vector.copy())

    def copy_from(self, other: "ModelState") -> None:
        """In-place overwrite from a compatible state."""
        self._check_compatible(other)
        np.copyto(self.vector, other.vector)

    def add_scaled(self, other: "ModelState", alpha: float) -> None:
        """``self += alpha * other`` in place (axpy)."""
        self._check_compatible(other)
        # In-place multiply-add without a temporary for the common alpha=1.
        if alpha == 1.0:
            self.vector += other.vector
        else:
            self.vector += np.float32(alpha) * other.vector

    def scale(self, alpha: float) -> None:
        """``self *= alpha`` in place."""
        self.vector *= np.float32(alpha)

    def l2_norm(self) -> float:
        """Euclidean norm of the flat parameter vector.

        One pass over the float32 buffer with float64 accumulation — no
        float64 copy of the (model-sized) vector is materialized.
        """
        return float(
            np.sqrt(np.einsum("i,i->", self.vector, self.vector, dtype=np.float64))
        )

    def l2_norm_per_param(self) -> float:
        """L2 norm divided by model dimensionality.

        This is the paper's regularization measure: perturbation is applied
        in Algorithm 2 only when this value is below ``pert_thr`` for every
        replica (§III-B).
        """
        return self.l2_norm() / self.n_params

    def _check_compatible(self, other: "ModelState") -> None:
        if self.spec != other.spec:
            raise ModelStateError(
                f"incompatible model states: {self.spec} vs {other.spec}"
            )


def weighted_average(
    states: Sequence[ModelState], weights: Sequence[float]
) -> ModelState:
    """``sum_i weights[i] * states[i]`` as a new state.

    This is the reference (single-step) merge; the distributed equivalents in
    :mod:`repro.comm` must agree with it bit-for-bit up to float addition
    order. Weights are *not* required to sum to one — Algorithm 2's
    perturbation deliberately denormalizes them.
    """
    if not states:
        raise ModelStateError("weighted_average of zero states")
    if len(states) != len(weights):
        raise ModelStateError(
            f"{len(states)} states but {len(weights)} weights"
        )
    for state in states[1:]:
        states[0]._check_compatible(state)
    stacked = np.stack([s.vector for s in states])  # (R, P)
    w = np.asarray(weights, dtype=np.float32)[:, None]
    merged = (stacked * w).sum(axis=0, dtype=np.float32)
    return ModelState(states[0].spec, np.ascontiguousarray(merged))
