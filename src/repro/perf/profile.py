"""Host-side profiling hooks for the fused hot-path kernels.

The simulated clock prices *modeled* device work; the ``repro.perf`` kernels
additionally burn *real* host CPU. This module lets a telemetry run observe
that real cost without taxing normal runs: each kernel checks a single
module-level slot and, only when a profiler is active, wraps itself in a
``perf_counter`` pair and accumulates ``(calls, seconds, units)`` per kernel
name. Disabled cost is one ``None`` check per kernel call; enabled cost is
two clock reads and a dict update — far below the 5% overhead budget the CI
gate enforces on ``benchmarks/bench_hotpath.py``.

Aggregation (rather than per-call span events) is deliberate: the gather
kernel runs once per dispatched batch, and a per-call event list would
itself become the hot path's biggest allocation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["KernelProfile", "activate", "deactivate", "active"]


class KernelProfile:
    """Per-kernel aggregate host-time statistics."""

    __slots__ = ("stats",)

    def __init__(self) -> None:
        #: name -> [calls, total host seconds, total work units].
        self.stats: Dict[str, List[float]] = {}

    def add(self, name: str, seconds: float, units: int = 0) -> None:
        """Account one kernel invocation of ``seconds`` host time."""
        entry = self.stats.get(name)
        if entry is None:
            self.stats[name] = [1, seconds, units]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += units

    def as_records(self) -> List[dict]:
        """Rows for export: one dict per kernel, sorted by total time."""
        rows = [
            {
                "kernel": name,
                "calls": int(calls),
                "host_s": float(seconds),
                "units": int(units),
            }
            for name, (calls, seconds, units) in self.stats.items()
        ]
        rows.sort(key=lambda r: -r["host_s"])
        return rows


#: The active profiler, or ``None``. Kernels read this attribute directly;
#: keeping it a plain module global makes the disabled check one LOAD + jump.
active: Optional[KernelProfile] = None


def activate(profile: KernelProfile) -> None:
    """Route kernel timings into ``profile`` until :func:`deactivate`."""
    global active
    active = profile


def deactivate() -> None:
    """Stop profiling kernels (restores the zero-cost disabled path)."""
    global active
    active = None
