"""Tests for ThrottledProfile fault injection and trainer resilience."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSGDTrainer
from repro.core.config import AdaptiveSGDConfig
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import MultiGPUServer, make_server
from repro.gpu.cost import GpuCostParams
from repro.gpu.profiles import SpeedProfile, ThrottledProfile


class TestThrottledProfile:
    def base(self):
        return SpeedProfile(base=1.0, osc_amplitude=0.0, jitter_amplitude=0.0)

    def test_no_events_is_identity(self):
        prof = ThrottledProfile(self.base())
        assert prof.speed(5.0) == 1.0

    def test_single_event(self):
        prof = ThrottledProfile(self.base(), events=[(2.0, 0.5)])
        assert prof.speed(1.9) == 1.0
        assert prof.speed(2.0) == 0.5
        assert prof.speed(100.0) == 0.5

    def test_recovery_event(self):
        prof = ThrottledProfile(
            self.base(), events=[(2.0, 0.5), (4.0, 1.0)]
        )
        assert prof.speed(3.0) == 0.5
        assert prof.speed(4.5) == 1.0

    def test_base_passthrough(self):
        prof = ThrottledProfile(SpeedProfile(base=0.8, osc_amplitude=0.0,
                                             jitter_amplitude=0.0))
        assert prof.base == 0.8
        assert prof.speed(0.0) == 0.8

    def test_unordered_events_rejected(self):
        with pytest.raises(ConfigurationError):
            ThrottledProfile(self.base(), events=[(3.0, 0.5), (1.0, 0.8)])

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            ThrottledProfile(self.base(), events=[(1.0, 0.0)])

    def test_composes_with_oscillation(self):
        noisy = SpeedProfile(base=1.0, osc_amplitude=0.05,
                             jitter_amplitude=0.0, seed=1)
        prof = ThrottledProfile(noisy, events=[(1.0, 0.5)])
        assert prof.speed(2.0) == pytest.approx(0.5 * noisy.speed(2.0))


class TestAdaptiveResilience:
    def test_batch_scaling_reacts_to_mid_run_throttle(self, micro_task):
        """Throttle one GPU mid-run: Algorithm 1 must shrink its batch size
        relative to its pre-throttle level."""
        server = make_server(
            4, heterogeneity="uniform", seed=3,
            cost_params=GpuCostParams.tiny_model_profile(),
        )
        throttle_at = 0.02
        victim = 2
        server.gpus[victim].profile = ThrottledProfile(
            server.gpus[victim].profile, events=[(throttle_at, 0.45)]
        )
        cfg = AdaptiveSGDConfig(b_max=64, base_lr=0.2, mega_batch_batches=32)
        trainer = AdaptiveSGDTrainer(
            micro_task, server, cfg, hidden=(32,), init_seed=1, data_seed=1,
            eval_samples=64,
        )
        trace = trainer.run(time_budget_s=0.08)
        history = np.asarray(
            [b.batch_sizes for b in trace.boundaries], dtype=float
        )
        times = [p.time_s for p in trace.points[1:]]
        pre = history[[t < throttle_at for t in times]]
        post = history[[t > throttle_at * 2 for t in times]]
        assert len(pre) and len(post)
        # The throttled GPU's batch size dropped markedly after the event...
        assert post[:, victim].mean() < pre[:, victim].mean() - 4
        # ...and it ends below every healthy GPU's batch size.
        final = history[-1]
        healthy = [final[g] for g in range(4) if g != victim]
        assert final[victim] < min(healthy)
