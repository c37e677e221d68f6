"""Discrete-event simulation engine (simpy-lite, built from scratch).

This package provides the virtual timeline on which the HeteroGPU cluster
runs: generator-based processes, one-shot events, timeouts and composite
conditions. The scheduler is single-threaded and fully deterministic —
equal-time events fire in creation order — so every simulated experiment
replays identically.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "environment": "Environment Process",
    "events": "AllOf Event Timeout",
})
