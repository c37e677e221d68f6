"""Tests for repro.gpu.cost and repro.gpu.profiles."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.gpu.cost import (
    CpuCostModel,
    CpuCostParams,
    GpuCostModel,
    GpuCostParams,
    StepWorkload,
)
from repro.gpu.profiles import (
    SpeedProfile,
    make_heterogeneous_profiles,
    make_uniform_profiles,
)

WORK = StepWorkload(batch_size=64, batch_nnz=2000, layer_dims=(500, 64, 300))


class TestGpuCostModel:
    def test_step_time_positive(self):
        assert GpuCostModel().step_time(WORK) > 0

    def test_slower_speed_longer_time(self):
        model = GpuCostModel()
        assert model.step_time(WORK, speed=0.5) > model.step_time(WORK, speed=1.0)

    def test_nnz_sensitivity(self):
        """Sparse-input cost must grow with the batch's non-zero count."""
        model = GpuCostModel(GpuCostParams.tiny_model_profile())
        sparse_heavy = StepWorkload(64, 20_000, (500, 64, 300))
        assert model.step_time(sparse_heavy) > model.step_time(WORK)

    def test_interference_grows_with_active_gpus(self):
        model = GpuCostModel()
        t1 = model.launch_overhead(1)
        t4 = model.launch_overhead(4)
        assert t4 > t1
        assert t4 == pytest.approx(t1 * (1 + 0.35 * 3))

    def test_model_transfer_linear(self):
        model = GpuCostModel()
        assert model.model_transfer_time(2_000_000) == pytest.approx(
            2 * model.model_transfer_time(1_000_000)
        )

    def test_invalid_inputs_rejected(self):
        model = GpuCostModel()
        with pytest.raises(ConfigurationError):
            model.step_time(WORK, speed=0.0)
        with pytest.raises(ConfigurationError):
            model.launch_overhead(0)
        with pytest.raises(ConfigurationError):
            model.model_transfer_time(-1)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            GpuCostParams(dense_flops_per_s=0)

    def test_tiny_profile_lower_overhead_share(self):
        """In the tiny profile, compute dominates constants (by design)."""
        tiny = GpuCostModel(GpuCostParams.tiny_model_profile())
        small_work = StepWorkload(128, 128 * 20, (768, 64, 1536))
        total = tiny.step_time(small_work, n_active_gpus=4)
        constants = (
            tiny.launch_overhead(4) + tiny.params.step_overhead_s
        )
        assert constants < 0.25 * total


class TestLshInferenceTime:
    # XML-shaped workload: wide output layer, small hidden — the regime
    # the approximate scorer exists for.
    XML = StepWorkload(batch_size=64, batch_nnz=2000,
                       layer_dims=(500, 128, 32768))

    def test_selective_retrieval_beats_exact(self):
        model = GpuCostModel(GpuCostParams.tiny_model_profile())
        exact = model.inference_time(self.XML)
        lsh = model.lsh_inference_time(self.XML, 0.01)
        assert lsh < exact

    def test_full_candidates_lose_to_exact(self):
        """At fraction 1.0 LSH does the exact path's work at sparse
        throughput plus hashing — it must always price higher."""
        model = GpuCostModel(GpuCostParams.tiny_model_profile())
        exact = model.inference_time(WORK)
        lsh = model.lsh_inference_time(WORK, 1.0)
        assert lsh > exact

    def test_monotone_in_candidate_fraction(self):
        model = GpuCostModel()
        times = [
            model.lsh_inference_time(self.XML, f)
            for f in (0.001, 0.01, 0.1, 1.0)
        ]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_hash_geometry_costs(self):
        model = GpuCostModel()
        cheap = model.lsh_inference_time(self.XML, 0.01, n_tables=4, n_bits=4)
        steep = model.lsh_inference_time(
            self.XML, 0.01, n_tables=32, n_bits=16
        )
        assert steep > cheap

    def test_speed_scales_service_time(self):
        model = GpuCostModel()
        assert model.lsh_inference_time(self.XML, 0.01, speed=0.5) > (
            model.lsh_inference_time(self.XML, 0.01, speed=1.0)
        )

    def test_invalid_inputs_rejected(self):
        model = GpuCostModel()
        with pytest.raises(ConfigurationError):
            model.lsh_inference_time(self.XML, -0.1)
        with pytest.raises(ConfigurationError):
            model.lsh_inference_time(self.XML, 1.5)
        with pytest.raises(ConfigurationError):
            model.lsh_inference_time(self.XML, 0.01, speed=0.0)
        with pytest.raises(ConfigurationError):
            model.lsh_inference_time(self.XML, 0.01, n_tables=0)
        with pytest.raises(ConfigurationError):
            model.lsh_inference_time(self.XML, 0.01, n_probes=0)


class TestLshRebuildTime:
    """Pricing of the hot-swap warming step (rebuild the serving index)."""

    def test_positive_and_off_path(self):
        model = GpuCostModel()
        t = model.lsh_rebuild_time(1000, 64)
        assert t > 0

    def test_monotone_in_label_count_and_geometry(self):
        model = GpuCostModel()
        small = model.lsh_rebuild_time(1_000, 64, n_tables=8, n_bits=8)
        more_labels = model.lsh_rebuild_time(100_000, 64, n_tables=8, n_bits=8)
        more_tables = model.lsh_rebuild_time(1_000, 64, n_tables=64, n_bits=16)
        assert more_labels > small
        assert more_tables > small

    def test_invalid_inputs_rejected(self):
        model = GpuCostModel()
        with pytest.raises(ConfigurationError):
            model.lsh_rebuild_time(0, 64)
        with pytest.raises(ConfigurationError):
            model.lsh_rebuild_time(100, 0)
        with pytest.raises(ConfigurationError):
            model.lsh_rebuild_time(100, 64, n_tables=0)

    def test_model_transfer_time(self):
        model = GpuCostModel()
        assert model.model_transfer_time(0) == 0.0
        assert model.model_transfer_time(1 << 20) > 0
        with pytest.raises(ConfigurationError):
            model.model_transfer_time(-1)


class TestStepWorkload:
    def test_batch_bytes(self):
        work = StepWorkload(10, 100, (5, 3, 2))
        assert work.batch_bytes == 8 * 100 + 4 * 11


class TestCpuCostModel:
    def test_thread_scaling_sublinear_but_monotone(self):
        model = CpuCostModel()
        t1 = model.samples_time(1e6, 100, 1)
        t8 = model.samples_time(1e6, 100, 8)
        t32 = model.samples_time(1e6, 100, 32)
        assert t1 > t8 > t32
        assert t1 / t32 < 32  # efficiency < 1 makes scaling sublinear

    def test_invalid_threads_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuCostModel().samples_time(1e6, 10, 0)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuCostParams(thread_efficiency=0.0)


class TestSpeedProfile:
    def test_deterministic_trace(self):
        p1 = SpeedProfile(base=0.9, seed=3)
        p2 = SpeedProfile(base=0.9, seed=3)
        times = np.linspace(0, 30, 40)
        assert [p1.speed(t) for t in times] == [p2.speed(t) for t in times]

    def test_speed_positive_and_near_base(self):
        profile = SpeedProfile(base=0.8, seed=1)
        for t in np.linspace(0, 60, 100):
            s = profile.speed(float(t))
            assert 0.8 * 0.9 < s < 0.8 * 1.1

    def test_oscillation_changes_speed_over_time(self):
        profile = SpeedProfile(base=1.0, osc_amplitude=0.05,
                               jitter_amplitude=0.0, seed=0)
        speeds = {round(profile.speed(t), 6) for t in np.linspace(0, 7, 20)}
        assert len(speeds) > 5

    def test_no_noise_profile_constant(self):
        profile = SpeedProfile(base=1.0, osc_amplitude=0.0,
                               jitter_amplitude=0.0, seed=0)
        assert profile.speed(0.0) == profile.speed(100.0) == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            SpeedProfile().speed(-1.0)

    def test_jitter_queried_out_of_order(self):
        profile = SpeedProfile(seed=2)
        late = profile.speed(50.0)
        early = profile.speed(1.0)
        assert profile.speed(50.0) == late  # cache is stable
        assert profile.speed(1.0) == early


class TestProfileFactories:
    def test_heterogeneous_gap(self):
        profiles = make_heterogeneous_profiles(4, max_gap=0.32, seed=0)
        bases = sorted(p.base for p in profiles)
        assert bases[0] == pytest.approx(0.68)
        assert bases[-1] == pytest.approx(1.0)

    def test_single_gpu_no_gap(self):
        profiles = make_heterogeneous_profiles(1, seed=0)
        assert profiles[0].base == 1.0

    def test_uniform_profiles_identical_speed(self):
        profiles = make_uniform_profiles(3, seed=0)
        assert all(p.speed(5.0) == 1.0 for p in profiles)

    def test_assignment_shuffled(self):
        # Device id should not always encode the speed rank.
        hits = 0
        for seed in range(10):
            profiles = make_heterogeneous_profiles(4, seed=seed)
            bases = [p.base for p in profiles]
            if bases != sorted(bases, reverse=True):
                hits += 1
        assert hits > 0

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigurationError):
            make_heterogeneous_profiles(0)
        with pytest.raises(ConfigurationError):
            make_heterogeneous_profiles(2, max_gap=0.95)
