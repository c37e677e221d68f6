"""The simulated multi-GPU server.

Bundles the virtual devices with the interconnect description and provides
the named constructors experiments use (``make_server``). The default server
mirrors the paper's testbed: 4 × V100-16GB on one PCIe host with observable
heterogeneity (Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.exceptions import ConfigurationError
from repro.gpu.cost import CpuCostModel, CpuCostParams, GpuCostModel, GpuCostParams
from repro.gpu.device import VirtualCPU, VirtualGPU
from repro.gpu.profiles import make_heterogeneous_profiles, make_uniform_profiles

__all__ = ["MultiGPUServer", "make_server"]

HETEROGENEITY_MODES = ("het", "uniform")


@dataclass
class MultiGPUServer:
    """A single-server multi-GPU machine: devices + host CPU on one PCIe
    interconnect."""

    gpus: List[VirtualGPU]
    cpu: VirtualCPU = field(default_factory=VirtualCPU)

    def __post_init__(self) -> None:
        if not self.gpus:
            raise ConfigurationError("a server needs at least one GPU")
        ids = [g.device_id for g in self.gpus]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate GPU device ids: {ids}")

    @property
    def n_gpus(self) -> int:
        """Number of GPUs installed."""
        return len(self.gpus)

    @property
    def topology(self):
        """The single-server PCIe tree over the installed devices (a join
        grows it, so collective timings stay consistent)."""
        from repro.comm.topology import InterconnectTopology

        return InterconnectTopology.single_server_pcie(len(self.gpus))

    @property
    def device_ids(self) -> List[int]:
        """Installed device ids, in slot order."""
        return [g.device_id for g in self.gpus]

    def device(self, device_id: int) -> VirtualGPU:
        """Look up an installed GPU by id (active or not)."""
        for g in self.gpus:
            if g.device_id == device_id:
                return g
        raise ConfigurationError(
            f"no GPU with device_id {device_id}; installed: {self.device_ids}"
        )

    def add_gpu(self, gpu: VirtualGPU) -> None:
        """Install a device at runtime (elastic ``join`` provisioning); the
        :attr:`topology` then spans the grown device set."""
        if any(g.device_id == gpu.device_id for g in self.gpus):
            raise ConfigurationError(
                f"device_id {gpu.device_id} already installed"
            )
        self.gpus.append(gpu)

    def speeds_at(self, t: float) -> List[float]:
        """Every GPU's speed multiplier at time ``t`` (diagnostics)."""
        return [g.speed_at(t) for g in self.gpus]


def make_server(
    n_gpus: int = 4,
    *,
    heterogeneity: str = "het",
    max_gap: float = 0.32,
    cost_params: Optional[GpuCostParams] = None,
    cpu_params: Optional[CpuCostParams] = None,
    seed: int = 0,
) -> MultiGPUServer:
    """Construct the paper-testbed-like server.

    Parameters
    ----------
    n_gpus:
        GPUs installed (the paper evaluates 1, 2, and 4).
    heterogeneity:
        ``"het"`` — base-speed skew up to ``max_gap`` plus oscillation and
        jitter (Figure 1 behaviour); ``"uniform"`` — idealized identical
        devices (ablation control).
    """
    if heterogeneity not in HETEROGENEITY_MODES:
        raise ConfigurationError(
            f"heterogeneity must be one of {HETEROGENEITY_MODES}, got {heterogeneity!r}"
        )
    if heterogeneity == "het":
        profiles = make_heterogeneous_profiles(n_gpus, max_gap=max_gap, seed=seed)
    else:
        profiles = make_uniform_profiles(n_gpus, seed=seed)
    params = cost_params or GpuCostParams()
    gpus = [
        VirtualGPU(
            device_id=i,
            profile=profiles[i],
            cost_model=GpuCostModel(params),
        )
        for i in range(n_gpus)
    ]
    cpu = (
        VirtualCPU(cost_model=CpuCostModel(cpu_params))
        if cpu_params is not None
        else VirtualCPU()
    )
    return MultiGPUServer(gpus=gpus, cpu=cpu)
