"""Virtual heterogeneous GPU substrate (the paper's testbed, simulated).

- :mod:`repro.gpu.cost` — analytical step/transfer cost models (GPU + CPU).
- :mod:`repro.gpu.profiles` — time-varying per-device speed profiles.
- :mod:`repro.gpu.device` — :class:`VirtualGPU` / :class:`VirtualCPU`.
- :mod:`repro.gpu.cluster` — :func:`make_server` (4×V100-like by default).
"""

from repro.gpu.cluster import MultiGPUServer, make_server
from repro.gpu.cost import (
    CpuCostModel,
    CpuCostParams,
    GpuCostModel,
    GpuCostParams,
    StepWorkload,
)
from repro.gpu.device import VirtualCPU, VirtualGPU
from repro.gpu.profiles import (
    SpeedProfile,
    ThrottledProfile,
    make_heterogeneous_profiles,
    make_uniform_profiles,
)

__all__ = [
    "MultiGPUServer",
    "make_server",
    "CpuCostModel",
    "CpuCostParams",
    "GpuCostModel",
    "GpuCostParams",
    "StepWorkload",
    "VirtualCPU",
    "VirtualGPU",
    "SpeedProfile",
    "ThrottledProfile",
    "make_heterogeneous_profiles",
    "make_uniform_profiles",
]
