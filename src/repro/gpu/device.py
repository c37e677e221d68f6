"""Virtual devices: the simulated GPUs and the SLIDE CPU.

A :class:`VirtualGPU` knows how long a given SGD step takes *right now*
(cost model × its time-varying speed profile) and tracks busy time so
utilization can be asserted on. It does not execute anything —
GPU-manager processes (in the trainers) advance the simulation clock by
the durations computed here, while the actual numerics run on the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.exceptions import ConfigurationError, SimulationError
from repro.gpu.cost import (
    CpuCostModel,
    CpuCostParams,
    GpuCostModel,
    GpuCostParams,
    StepWorkload,
)
from repro.gpu.profiles import SpeedProfile

__all__ = ["VirtualGPU", "VirtualCPU"]

GiB = 1024**3


@dataclass
class VirtualGPU:
    """A single simulated GPU.

    Defaults mimic the paper's testbed device (NVIDIA V100, 16 GB).
    """

    device_id: int
    profile: SpeedProfile
    cost_model: GpuCostModel = field(default_factory=GpuCostModel)
    memory_bytes: int = 16 * GiB
    name: str = ""

    def __post_init__(self) -> None:
        if self.device_id < 0:
            raise ConfigurationError(f"device_id must be >= 0, got {self.device_id}")
        if self.memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")
        if not self.name:
            self.name = f"gpu{self.device_id}"
        self._busy_s = 0.0
        self._steps = 0
        self._speed_scale = 1.0

    # -- execution-time queries -----------------------------------------------
    def speed_at(self, t: float) -> float:
        """The device's relative speed multiplier at simulated time ``t``.

        The profile's deterministic trace times the dynamic membership
        throttle scale (1.0 unless a ``throttle`` lifecycle event is in
        effect).
        """
        return self.profile.speed(t) * self._speed_scale

    @property
    def speed_scale(self) -> float:
        """Current dynamic throttle multiplier (1.0 = unthrottled)."""
        return self._speed_scale

    def set_speed_scale(self, factor: float) -> None:
        """Apply a lifecycle ``throttle``/``recover`` speed multiplier.

        Unlike :class:`~repro.gpu.profiles.ThrottledProfile` (a static,
        pre-authored schedule), this is the mutable hook the elastic
        membership layer drives from live timeline events.
        """
        if not (isinstance(factor, (int, float)) and factor > 0):
            raise ConfigurationError(
                f"speed scale must be > 0, got {factor!r}"
            )
        self._speed_scale = float(factor)

    def step_time(
        self, workload: StepWorkload, t: float, *, n_active_gpus: int = 1
    ) -> float:
        """Seconds the device needs for ``workload`` started at time ``t``."""
        return self.cost_model.step_time(
            workload, speed=self.speed_at(t), n_active_gpus=n_active_gpus
        )

    def model_transfer_time(self, nbytes: int) -> float:
        """Host↔device model-replica transfer time."""
        return self.cost_model.model_transfer_time(nbytes)

    # -- utilization bookkeeping -------------------------------------------
    def record_busy(self, seconds: float) -> None:
        """Accumulate busy time (called by trainers as steps complete)."""
        if seconds < 0:
            raise SimulationError(f"negative busy time: {seconds}")
        self._busy_s += float(seconds)
        self._steps += 1

    @property
    def busy_seconds(self) -> float:
        """Total simulated seconds spent computing."""
        return self._busy_s

    @property
    def steps_executed(self) -> int:
        """Number of SGD steps the device has run."""
        return self._steps

    def utilization(self, elapsed: float) -> float:
        """Busy fraction of ``elapsed`` simulated seconds."""
        return self._busy_s / elapsed if elapsed > 0 else 0.0


@dataclass
class VirtualCPU:
    """The multicore CPU that runs the SLIDE baseline.

    Defaults mimic the paper's host (16-core / 32-thread Cascade Lake).
    """

    n_threads: int = 32
    cost_model: CpuCostModel = field(default_factory=CpuCostModel)
    name: str = "cpu"

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ConfigurationError(f"n_threads must be >= 1, got {self.n_threads}")
        self._busy_s = 0.0

    def samples_time(self, per_sample_flops: float, n_samples: int) -> float:
        """Seconds to run ``n_samples`` per-sample updates across all threads."""
        return self.cost_model.samples_time(
            per_sample_flops, n_samples, self.n_threads
        )

    def record_busy(self, seconds: float) -> None:
        """Accumulate busy time."""
        if seconds < 0:
            raise SimulationError(f"negative busy time: {seconds}")
        self._busy_s += float(seconds)

    @property
    def busy_seconds(self) -> float:
        """Total simulated seconds spent computing."""
        return self._busy_s
