"""Replica-staleness bounds and measurement.

§III-A argues that ``b_min``/``b_max`` "impose bounds on replica staleness,
allowing the application of convergence results from stale synchronous SGD".
The intuition: within one mega-batch of ``M`` samples on ``n`` GPUs, a GPU
running at ``b_min`` can perform at most ``M/b_min`` updates while one at
``b_max`` performs at least its dispatched share — so the spread in update
counts (the *staleness* between replicas at merge time) is bounded by a
function of ``M``, ``b_min``, ``b_max`` and ``n`` alone, independent of how
skewed the GPU speeds are.

:func:`staleness_bound` computes that analytical bound; the realized spread
is the ``staleness`` of each of a run's ``trace.boundaries`` (and the
``staleness`` gauge), so experiments can verify the bound empirically
(property-tested).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["staleness_bound"]


def staleness_bound(
    mega_batch_size: int, b_min: int, b_max: int, n_gpus: int
) -> float:
    """Worst-case spread in per-mega-batch update counts across GPUs.

    Worst case: one GPU absorbs the whole mega-batch in ``b_min``-sized
    batches (``ceil(M/b_min)`` updates — every batch consumes at least
    ``b_min`` samples except a possible final remainder) while another GPU
    receives nothing. A single GPU has no staleness by definition.
    """
    if mega_batch_size < 1:
        raise ConfigurationError(f"mega_batch_size must be >= 1, got {mega_batch_size}")
    if not (1 <= b_min <= b_max):
        raise ConfigurationError(f"need 1 <= b_min <= b_max, got [{b_min}, {b_max}]")
    if n_gpus < 1:
        raise ConfigurationError(f"n_gpus must be >= 1, got {n_gpus}")
    if n_gpus == 1:
        return 0.0
    return float(np.ceil(mega_batch_size / b_min))
