"""Local (per-replica) SGD update rules.

Replica updates inside a mega-batch are plain SGD steps — the momentum the
paper uses lives at the *global merge* (Algorithm 2, §III-B), not in the
per-GPU updates.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.sparse.model_state import ModelState

__all__ = ["sgd_step"]


def sgd_step(state: ModelState, grad: ModelState, lr: float) -> None:
    """In-place vanilla SGD: ``state -= lr * grad``."""
    if not (lr > 0):
        raise ConfigurationError(f"learning rate must be > 0, got {lr}")
    state.add_scaled(grad, -float(lr))
