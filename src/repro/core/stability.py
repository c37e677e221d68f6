"""Steady-state and oscillation detection for batch size scaling.

§III-A: "By default, the algorithm is executed after every mega-batch.
However, if stability is achieved or the system enters an oscillatory
state, the frequency at which scaling is performed can be increased." (We
read "frequency ... increased" as the scaling *interval* being increased —
i.e. scaling runs less often — since re-scaling an already-stable or
thrashing system every mega-batch is exactly what the sentence is avoiding.)

:class:`StabilityDetector` classifies the recent batch-size history of every
GPU; :class:`ScalingGovernor` turns the classification into "should
Algorithm 1 run at this boundary?" with exponential back-off while the
system remains stable/oscillatory and an immediate reset once it drifts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["StabilityState", "StabilityDetector", "ScalingGovernor"]

#: Boundaries of batch-size history each classification looks at.
WINDOW = 5
#: "Stable": every GPU within this fraction of ``b_max`` of its window mean.
TOLERANCE = 0.05
#: "Oscillatory": the direction of change flips in at least this fraction
#: of consecutive moves.
FLIP_FRACTION = 0.6
#: Cap on the scaling interval (mega-batches) while the system is settled.
MAX_INTERVAL = 8


@dataclass(frozen=True)
class StabilityState:
    """Classification of the recent batch-size trajectory."""

    stable: bool
    oscillatory: bool

    @property
    def settled(self) -> bool:
        """Either condition that allows stretching the scaling interval."""
        return self.stable or self.oscillatory


class StabilityDetector:
    """Classifies per-GPU batch-size histories over a sliding window.

    - **stable**: every GPU's batch size stayed within ``TOLERANCE`` (as a
      fraction of ``b_max``) of its mean over the last ``WINDOW`` boundaries;
    - **oscillatory**: some GPU's batch size keeps moving but its *direction
      of change* flips in at least ``FLIP_FRACTION`` of consecutive steps —
      the classic thrash around a fixed point.
    """

    def __init__(self, n_gpus: int, b_max: int) -> None:
        if n_gpus < 1:
            raise ConfigurationError(f"n_gpus must be >= 1, got {n_gpus}")
        self.n_gpus = n_gpus
        self.b_max = b_max
        self._history: List[Deque[int]] = [
            deque(maxlen=WINDOW) for _ in range(n_gpus)
        ]

    def observe(self, batch_sizes: Sequence[int]) -> None:
        """Record the batch sizes chosen at a mega-batch boundary."""
        if len(batch_sizes) != self.n_gpus:
            raise ConfigurationError(
                f"expected {self.n_gpus} batch sizes, got {len(batch_sizes)}"
            )
        for gpu, b in enumerate(batch_sizes):
            self._history[gpu].append(int(b))

    def classify(self) -> StabilityState:
        """Classify the current window (needs a full window; else neither)."""
        if any(len(h) < h.maxlen for h in self._history):
            return StabilityState(stable=False, oscillatory=False)
        tol = TOLERANCE * self.b_max
        stable = True
        oscillatory = False
        for history in self._history:
            arr = np.asarray(history, dtype=np.float64)
            if np.abs(arr - arr.mean()).max() > tol:
                stable = False
            deltas = np.diff(arr)
            moving = deltas[deltas != 0]
            # Need at least three moves before calling a pattern "thrash";
            # a single reversal is ordinary adjustment, not oscillation.
            if len(moving) >= 3:
                flips = np.sum(np.sign(moving[1:]) != np.sign(moving[:-1]))
                if flips / (len(moving) - 1) >= FLIP_FRACTION:
                    oscillatory = True
        return StabilityState(stable=stable, oscillatory=oscillatory)


class ScalingGovernor:
    """Decides at each boundary whether Algorithm 1 should run.

    While the detector reports a settled system, the interval between
    scaling invocations doubles (capped at ``MAX_INTERVAL``); any
    non-settled classification resets it to every boundary.
    """

    def __init__(self, detector: StabilityDetector) -> None:
        self.detector = detector
        self._interval = 1
        self._since_last = 0

    @property
    def interval(self) -> int:
        """Current number of mega-batches between scaling invocations."""
        return self._interval

    def should_scale(self, batch_sizes: Sequence[int]) -> bool:
        """Record this boundary's batch sizes and decide whether to scale."""
        self.detector.observe(batch_sizes)
        state = self.detector.classify()
        if state.settled:
            self._interval = min(self._interval * 2, MAX_INTERVAL)
        else:
            self._interval = 1
        self._since_last += 1
        if self._since_last >= self._interval:
            self._since_last = 0
            return True
        return False
