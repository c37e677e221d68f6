"""Virtual heterogeneous GPU substrate (the paper's testbed, simulated).

- :mod:`repro.gpu.cost` — analytical step/transfer cost models (GPU + CPU).
- :mod:`repro.gpu.profiles` — time-varying per-device speed profiles.
- :mod:`repro.gpu.device` — :class:`VirtualGPU` / :class:`VirtualCPU`.
- :mod:`repro.gpu.cluster` — :func:`make_server` (4×V100-like by default).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cluster": "MultiGPUServer make_server",
    "cost": (
        "CpuCostModel CpuCostParams GpuCostModel GpuCostParams "
        "StepWorkload"
    ),
    "device": "VirtualCPU VirtualGPU",
    "profiles": (
        "SpeedProfile ThrottledProfile make_heterogeneous_profiles "
        "make_uniform_profiles"
    ),
})
