"""Tests for repro.gpu.device and repro.gpu.cluster."""

import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.gpu.cluster import MultiGPUServer, make_server
from repro.gpu.cost import GpuCostModel, GpuCostParams, StepWorkload
from repro.gpu.device import GiB, VirtualCPU, VirtualGPU
from repro.gpu.profiles import SpeedProfile

WORK = StepWorkload(batch_size=64, batch_nnz=2000, layer_dims=(500, 64, 300))


def make_gpu(base=1.0, **kwargs):
    return VirtualGPU(
        device_id=0, profile=SpeedProfile(base=base, seed=0), **kwargs
    )


class TestVirtualGPU:
    def test_step_time_uses_profile(self):
        fast = make_gpu(base=1.0)
        slow = make_gpu(base=0.5)
        assert slow.step_time(WORK, 0.0) > fast.step_time(WORK, 0.0)

    def test_busy_accounting(self):
        gpu = make_gpu()
        gpu.record_busy(0.5)
        gpu.record_busy(0.25)
        assert gpu.busy_seconds == pytest.approx(0.75)
        assert gpu.steps_executed == 2
        assert gpu.utilization(1.5) == pytest.approx(0.5)

    def test_negative_busy_rejected(self):
        with pytest.raises(SimulationError):
            make_gpu().record_busy(-0.1)

    def test_max_batch_size_consistent_with_fits(self):
        gpu = make_gpu(memory_bytes=8 * 1024 * 1024)
        dims = (500, 64, 300)
        model_bytes = 4 * (500 * 64 + 64 + 64 * 300 + 300)
        bmax = gpu.max_batch_size(dims, model_bytes, avg_nnz_per_sample=30.0)
        assert bmax >= 1
        # Working set: replica + gradient, the batch CSR, and float32
        # activations for every layer after the input.
        work = StepWorkload(bmax, int(bmax * 30), dims)
        activations = 4 * bmax * sum(dims[1:])
        required = 2 * model_bytes + work.batch_bytes + activations
        assert required <= gpu.memory_bytes

    def test_model_too_big_rejected(self):
        gpu = make_gpu(memory_bytes=1000)
        with pytest.raises(ConfigurationError):
            gpu.max_batch_size((10, 5, 2), model_bytes=10_000,
                               avg_nnz_per_sample=5.0)

    def test_default_name_and_memory(self):
        gpu = make_gpu()
        assert gpu.name == "gpu0"
        assert gpu.memory_bytes == 16 * GiB  # V100 spec


class TestVirtualCPU:
    def test_samples_time_positive(self):
        cpu = VirtualCPU(n_threads=32)
        assert cpu.samples_time(1e6, 100) > 0

    def test_more_threads_faster(self):
        fast = VirtualCPU(n_threads=32)
        slow = VirtualCPU(n_threads=4)
        assert fast.samples_time(1e6, 100) < slow.samples_time(1e6, 100)

    def test_busy_tracking(self):
        cpu = VirtualCPU()
        cpu.record_busy(1.0)
        assert cpu.busy_seconds == 1.0

    def test_invalid_threads_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualCPU(n_threads=0)


class TestMakeServer:
    def test_default_matches_paper_testbed(self):
        server = make_server()
        assert server.n_gpus == 4
        assert all(g.memory_bytes == 16 * GiB for g in server.gpus)
        assert server.topology.n_devices == 4
        assert server.cpu.n_threads == 32  # the host CPU (32 threads)

    def test_topology_spans_a_joined_device(self):
        server = make_server(2)
        server.add_gpu(VirtualGPU(device_id=2, profile=SpeedProfile(seed=0)))
        assert server.topology.n_devices == 3

    def test_heterogeneous_speeds_spread(self):
        server = make_server(4, seed=1)
        speeds = server.speeds_at(0.0)
        assert max(speeds) / min(speeds) > 1.2

    def test_uniform_mode(self):
        server = make_server(4, heterogeneity="uniform")
        speeds = server.speeds_at(3.0)
        assert max(speeds) == min(speeds) == 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            make_server(4, heterogeneity="banana")

    def test_custom_cost_params_propagate(self):
        params = GpuCostParams.tiny_model_profile()
        server = make_server(2, cost_params=params)
        assert server.gpus[0].cost_model.params is params

    def test_duplicate_ids_rejected(self):
        gpu = make_gpu()
        with pytest.raises(ConfigurationError):
            MultiGPUServer(gpus=[gpu, gpu])

    def test_empty_server_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiGPUServer(gpus=[])
