"""Weight initialization for the sparse MLP.

The paper states (§V-A): "The initial values of the model weights are
randomly drawn from a normal distribution with standard deviation equal to
the number of units in every layer." Taken literally that std (e.g. 670,091
for the output layer) produces immediately-overflowing logits, so we read it
as the standard convention it abbreviates — std *scaled by* the layer's unit
count, i.e. ``1/sqrt(fan_in)`` (LeCun-style), with zero biases.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.model_state import ModelState
from repro.utils.rng import RngFactory

__all__ = ["initialize"]


def initialize(state: ModelState, *, seed: int = 0) -> ModelState:
    """Fill ``state`` in place with fan-in-scaled normal draws; return it.

    Weight matrices (2-D parameters) get ``N(0, 1/fan_in)`` noise; biases
    (1-D) are zero. The RNG stream is keyed per parameter name, so two
    replicas initialized with the same seed are bit-identical regardless of
    parameter iteration order — the paper requires "all the algorithms are
    initialized with the same model".
    """
    factory = RngFactory(seed).child("init")
    for name, shape in state.spec:
        view = state[name]
        if len(shape) >= 2:
            std = 1.0 / np.sqrt(int(shape[0]))
            rng = factory.get(name)
            view[...] = rng.normal(0.0, std, size=shape).astype(np.float32)
        else:
            view[...] = np.float32(0.0)
    return state
