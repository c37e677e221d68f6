"""Discrete-event simulation engine (simpy-lite, built from scratch).

This package provides the virtual timeline on which the HeteroGPU cluster
runs: generator-based processes, one-shot events, timeouts, composite
conditions, and time-series monitors. The scheduler is single-threaded and
fully deterministic — equal-time events fire in creation order — so every
simulated experiment replays identically.
"""

from repro.sim.environment import Environment, Process
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.monitor import Monitor, MonitorSet

__all__ = [
    "Environment",
    "Process",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Monitor",
    "MonitorSet",
]
