"""Algorithm 1 — Batch Size Scaling.

Executed at every mega-batch boundary. Given each GPU's number of model
updates ``u_i`` during the last mega-batch, the batch size of every GPU that
deviates from the mean update count ``µ̃`` is moved linearly toward parity:

- faster GPUs (``u_i > µ̃``) get **larger** batches:
  ``b_i ← b_i + β (u_i − µ̃)`` — as long as the result stays ≤ ``b_max``;
- slower GPUs (``u_i < µ̃``) get **smaller** batches:
  ``b_i ← b_i − β (µ̃ − u_i)`` — as long as the result stays ≥ ``b_min``;
- each accepted change rescales that GPU's learning rate by the **linear
  scaling rule**: ``lr_i ← lr_i · b_new / b_old``.

The goal is a steady state where every GPU performs the same number of
replica updates per mega-batch, eliminating replica staleness (§III-A).

Implementation note: the paper's update is real-valued; batches are integer
sample counts. We evaluate the bound checks on the exact real value (as the
pseudocode does) and round the accepted value to the nearest integer, using
the *realized* integer ratio in the learning-rate update so the linear
scaling rule holds exactly for the batch size actually used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "ScalingDecision",
    "scale_batch_sizes",
    "MembershipRescale",
    "rescale_for_membership",
]

#: A joining replica enters at this fraction of the survivors' mean
#: rescaled batch size, then Algorithm 1 grows it toward parity.
JOIN_RAMP = 0.5


@dataclass(frozen=True)
class ScalingDecision:
    """Outcome of one Algorithm-1 invocation."""

    batch_sizes: Tuple[int, ...]
    learning_rates: Tuple[float, ...]
    #: Per-GPU flag: did this GPU's batch size change?
    changed: Tuple[bool, ...]
    #: Mean update count µ̃ the decision was based on.
    mean_updates: float

    @property
    def any_changed(self) -> bool:
        """Whether Algorithm 1 modified any GPU's batch size."""
        return any(self.changed)


def scale_batch_sizes(
    batch_sizes: Sequence[int],
    learning_rates: Sequence[float],
    updates: Sequence[int],
    *,
    b_min: int,
    b_max: int,
    beta: float,
) -> ScalingDecision:
    """Run Algorithm 1 and return the new per-GPU batch sizes and LRs.

    Parameters mirror the pseudocode: current ``b_i``/``lr_i``, the update
    counts ``u_i`` from the finished mega-batch, the bounds, and ``β``.
    """
    n = len(batch_sizes)
    if n == 0:
        raise ConfigurationError("scale_batch_sizes needs at least one GPU")
    if not (len(learning_rates) == len(updates) == n):
        raise ConfigurationError(
            f"length mismatch: {n} batch sizes, {len(learning_rates)} LRs, "
            f"{len(updates)} update counts"
        )
    if not (1 <= b_min <= b_max):
        raise ConfigurationError(f"need 1 <= b_min <= b_max, got [{b_min}, {b_max}]")
    if beta <= 0:
        raise ConfigurationError(f"beta must be > 0, got {beta}")
    for i, (b, lr, u) in enumerate(zip(batch_sizes, learning_rates, updates)):
        if not (b_min <= b <= b_max):
            raise ConfigurationError(
                f"GPU {i}: batch size {b} outside [{b_min}, {b_max}]"
            )
        if lr <= 0:
            raise ConfigurationError(f"GPU {i}: learning rate {lr} must be > 0")
        if u < 0:
            raise ConfigurationError(f"GPU {i}: update count {u} must be >= 0")

    # Line 1: average model updates across GPUs.
    mu = float(np.mean(np.asarray(updates, dtype=np.float64)))

    new_b: List[int] = []
    new_lr: List[float] = []
    changed: List[bool] = []
    for b, lr, u in zip(batch_sizes, learning_rates, updates):
        proposal = None
        if u > mu and b + beta * (u - mu) <= b_max:
            proposal = b + beta * (u - mu)          # lines 3-5
        elif u < mu and b - beta * (mu - u) >= b_min:
            proposal = b - beta * (mu - u)          # lines 6-8
        if proposal is None:
            new_b.append(int(b))
            new_lr.append(float(lr))
            changed.append(False)
            continue
        b_new = int(round(proposal))
        # Rounding must not escape the bounds the check was made against.
        b_new = min(max(b_new, b_min), b_max)
        if b_new == b:
            new_b.append(int(b))
            new_lr.append(float(lr))
            changed.append(False)
            continue
        new_b.append(b_new)
        new_lr.append(float(lr) * (b_new / b))      # linear scaling rule
        changed.append(True)
    return ScalingDecision(
        batch_sizes=tuple(new_b),
        learning_rates=tuple(new_lr),
        changed=tuple(changed),
        mean_updates=mu,
    )


@dataclass(frozen=True)
class MembershipRescale:
    """Outcome of one Dynamic-Mini-batch membership rescale.

    ``batch_sizes`` / ``learning_rates`` are the surviving devices' new
    controls (same order as the inputs). ``join_batch_size`` /
    ``join_learning_rate`` are the controls a joining replica starts with
    (meaningful only when ``n_joining > 0`` was requested).
    """

    batch_sizes: Tuple[int, ...]
    learning_rates: Tuple[float, ...]
    join_batch_size: int
    join_learning_rate: float
    #: Whether any surviving device's batch size actually moved.
    changed: bool


def rescale_for_membership(
    batch_sizes: Sequence[int],
    learning_rates: Sequence[float],
    *,
    n_before: int,
    n_joining: int = 0,
    b_min: int,
    b_max: int,
) -> MembershipRescale:
    """Dynamic-Mini-batch rescale on a membership change (arXiv/1904.12043).

    When the active device set changes from ``n_before`` devices to
    ``len(batch_sizes) + n_joining``, the run continues instead of
    restarting: each *surviving* device's batch size is scaled by
    ``n_before / n_after`` (keeping the cluster's aggregate mega-batch
    contribution roughly constant while preserving the per-device ratios
    Algorithm 1 has adapted), with the learning rate following the linear
    scaling rule on the *realized* integer ratio — exactly as
    :func:`scale_batch_sizes` does.

    A *joining* replica warm-starts from the global model and ramps: it
    enters at ``JOIN_RAMP`` of the survivors' mean rescaled batch size
    (clamped to ``[b_min, b_max]``), with its learning rate linearly scaled
    from the survivors' mean. Algorithm 1 then grows it toward parity over
    subsequent mega-batches — the smooth re-entry the Dynamic-Mini-batch
    paper prescribes in place of a cold restart.
    """
    n_survivors = len(batch_sizes)
    if n_survivors == 0:
        raise ConfigurationError("membership rescale needs >= 1 surviving device")
    if len(learning_rates) != n_survivors:
        raise ConfigurationError(
            f"length mismatch: {n_survivors} batch sizes, "
            f"{len(learning_rates)} learning rates"
        )
    if n_before < 1:
        raise ConfigurationError(f"n_before must be >= 1, got {n_before}")
    if n_joining < 0:
        raise ConfigurationError(f"n_joining must be >= 0, got {n_joining}")
    if not (1 <= b_min <= b_max):
        raise ConfigurationError(f"need 1 <= b_min <= b_max, got [{b_min}, {b_max}]")
    for i, (b, lr) in enumerate(zip(batch_sizes, learning_rates)):
        if not (b_min <= b <= b_max):
            raise ConfigurationError(
                f"survivor {i}: batch size {b} outside [{b_min}, {b_max}]"
            )
        if lr <= 0:
            raise ConfigurationError(f"survivor {i}: learning rate {lr} must be > 0")

    n_after = n_survivors + n_joining
    ratio = n_before / n_after
    new_b: List[int] = []
    new_lr: List[float] = []
    changed = False
    for b, lr in zip(batch_sizes, learning_rates):
        b_new = min(max(int(round(b * ratio)), b_min), b_max)
        if b_new == b:
            new_b.append(int(b))
            new_lr.append(float(lr))
            continue
        new_b.append(b_new)
        new_lr.append(float(lr) * (b_new / b))      # linear scaling rule
        changed = True

    target = float(np.mean(np.asarray(new_b, dtype=np.float64)))
    join_b = min(max(int(round(JOIN_RAMP * target)), b_min), b_max)
    mean_lr = float(np.mean(np.asarray(new_lr, dtype=np.float64)))
    join_lr = mean_lr * (join_b / target) if target > 0 else mean_lr
    return MembershipRescale(
        batch_sizes=tuple(new_b),
        learning_rates=tuple(new_lr),
        join_batch_size=join_b,
        join_learning_rate=float(join_lr),
        changed=changed,
    )
