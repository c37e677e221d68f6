"""Weighted all-reduce collectives: interface and reference semantics.

HeteroGPU merges replicas with a *weighted average* all-reduce executed by
the GPU managers themselves (§IV). Two concerns are deliberately separated:

- **Numerics** — :meth:`AllReduceAlgorithm.reduce` computes the merged
  vector with the algorithm's own additions, in its order, on numpy
  chunks. Every algorithm must agree with the single-step reference
  :func:`repro.sparse.model_state.weighted_average` up to float addition
  order (property-tested).
- **Timing** — :meth:`AllReduceAlgorithm.time_seconds` prices the same
  movement on an :class:`~repro.comm.topology.InterconnectTopology`,
  including the ring's multi-stream transfer/compute overlap.

Concrete schedules: :mod:`repro.comm.ring`, :mod:`repro.comm.tree`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.comm.topology import InterconnectTopology
from repro.exceptions import CommunicationError

__all__ = [
    "AllReduceAlgorithm",
    "AllReduceTiming",
    "validate_operands",
    "weighted_locals",
]


@dataclass(frozen=True)
class AllReduceTiming:
    """Cost breakdown of one collective invocation."""

    total_s: float
    transfer_s: float
    reduce_s: float
    latency_s: float
    rounds: int
    n_streams: int

    def __post_init__(self) -> None:
        if self.total_s < 0:
            raise CommunicationError(f"negative total time: {self.total_s}")


def validate_operands(
    vectors: Sequence[np.ndarray], weights: Sequence[float]
) -> List[np.ndarray]:
    """Common operand checks; returns the vectors as float32 1-D arrays."""
    if not vectors:
        raise CommunicationError("all-reduce of zero vectors")
    if len(vectors) != len(weights):
        raise CommunicationError(
            f"{len(vectors)} vectors but {len(weights)} weights"
        )
    out = []
    size = None
    for i, vec in enumerate(vectors):
        arr = np.ascontiguousarray(vec, dtype=np.float32)
        if arr.ndim != 1:
            raise CommunicationError(f"vector {i} is not 1-D: shape {arr.shape}")
        if size is None:
            size = arr.size
        elif arr.size != size:
            raise CommunicationError(
                f"vector {i} has {arr.size} elements, expected {size}"
            )
        out.append(arr)
    return out


def weighted_locals(
    vecs: Sequence[np.ndarray], weights: Sequence[float]
) -> List[np.ndarray]:
    """Device-local contributions ``w_i * v_i`` (fresh arrays) for a
    schedule to move and accumulate in place."""
    return [v * np.float32(w) for v, w in zip(vecs, weights)]


class AllReduceAlgorithm(ABC):
    """A weighted-average all-reduce schedule."""

    name: str = "allreduce"

    @abstractmethod
    def reduce(
        self, vectors: Sequence[np.ndarray], weights: Sequence[float]
    ) -> np.ndarray:
        """Execute the schedule numerically; return ``sum_i w_i * v_i``.

        Implementations perform the hardware schedule's additions, in the
        schedule's order, so its chunking/addition-order effects are
        faithfully present; steps that only copy need not be replayed.
        The result is a fresh array; the inputs are left untouched.
        """

    @abstractmethod
    def time_seconds(
        self, nbytes: int, topology: InterconnectTopology
    ) -> AllReduceTiming:
        """Price one invocation for a model of ``nbytes`` on ``topology``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
