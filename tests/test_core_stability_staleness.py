"""Tests for repro.core.stability and repro.core.staleness."""

import pytest

from repro.core.stability import ScalingGovernor, StabilityDetector
from repro.core.staleness import staleness_bound
from repro.exceptions import ConfigurationError


class TestStabilityDetector:
    def make(self, **kwargs):
        defaults = dict(n_gpus=2, b_max=128, window=3, tolerance=0.05)
        defaults.update(kwargs)
        return StabilityDetector(**defaults)

    def test_insufficient_history_is_neither(self):
        det = self.make()
        det.observe([128, 128])
        state = det.classify()
        assert not state.stable and not state.oscillatory

    def test_constant_sizes_stable(self):
        det = self.make()
        for _ in range(3):
            det.observe([100, 80])
        state = det.classify()
        assert state.stable and state.settled

    def test_small_wiggle_within_tolerance_stable(self):
        det = self.make()
        for sizes in ([100, 80], [102, 78], [99, 81]):
            det.observe(sizes)
        assert det.classify().stable

    def test_trend_not_stable(self):
        det = self.make()
        for sizes in ([128, 128], [100, 128], [70, 128]):
            det.observe(sizes)
        state = det.classify()
        assert not state.stable

    def test_thrash_detected_as_oscillation(self):
        det = self.make(window=5, tolerance=0.01)
        for sizes in ([60, 80], [100, 80], [60, 80], [100, 80], [60, 80]):
            det.observe(sizes)
        state = det.classify()
        assert state.oscillatory and state.settled

    def test_wrong_width_rejected(self):
        det = self.make()
        with pytest.raises(ConfigurationError):
            det.observe([1, 2, 3])

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            StabilityDetector(0, 128)
        with pytest.raises(ConfigurationError):
            StabilityDetector(2, 128, window=1)
        with pytest.raises(ConfigurationError):
            StabilityDetector(2, 128, tolerance=1.5)


class TestScalingGovernor:
    def test_scales_every_boundary_while_unsettled(self):
        gov = ScalingGovernor(StabilityDetector(1, 128, window=3))
        decisions = [gov.should_scale([size]) for size in (128, 90, 60, 120)]
        assert all(decisions)

    def test_backs_off_when_stable(self):
        gov = ScalingGovernor(StabilityDetector(1, 128, window=2), max_interval=4)
        decisions = [gov.should_scale([100]) for _ in range(12)]
        # Once stable, the interval doubles: scaling becomes sparser.
        assert sum(decisions[4:]) < 8
        assert gov.interval > 1

    def test_resets_on_drift(self):
        gov = ScalingGovernor(StabilityDetector(1, 128, window=2), max_interval=8)
        for _ in range(6):
            gov.should_scale([100])
        assert gov.interval > 1
        gov.should_scale([40])  # big move: drift
        assert gov.interval == 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            ScalingGovernor(StabilityDetector(1, 128), max_interval=0)


class TestStalenessBound:
    def test_single_gpu_zero(self):
        assert staleness_bound(1000, 16, 128, 1) == 0.0

    def test_bound_formula(self):
        assert staleness_bound(1000, 16, 128, 4) == pytest.approx(
            -(-1000 // 16)
        )

    def test_bound_monotone_in_mega_batch(self):
        small = staleness_bound(500, 16, 128, 4)
        large = staleness_bound(5000, 16, 128, 4)
        assert large > small

    def test_larger_b_min_tightens_bound(self):
        loose = staleness_bound(1000, 8, 128, 4)
        tight = staleness_bound(1000, 64, 128, 4)
        assert tight < loose

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            staleness_bound(0, 16, 128, 4)
        with pytest.raises(ConfigurationError):
            staleness_bound(100, 0, 128, 4)
        with pytest.raises(ConfigurationError):
            staleness_bound(100, 129, 128, 4)
        with pytest.raises(ConfigurationError):
            staleness_bound(100, 16, 128, 0)
