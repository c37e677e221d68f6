"""Tests for repro.core.config — the §V-A hyperparameter derivation rules."""

import pytest

from repro.core.config import AdaptiveSGDConfig, linear_scaled_lr
from repro.exceptions import ConfigurationError


class TestLinearScaledLr:
    def test_proportionality(self):
        assert linear_scaled_lr(0.1, 128, 64) == pytest.approx(0.05)
        assert linear_scaled_lr(0.1, 128, 256) == pytest.approx(0.2)

    def test_identity_at_base(self):
        assert linear_scaled_lr(0.3, 128, 128) == 0.3

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            linear_scaled_lr(0.0, 128, 64)
        with pytest.raises(ConfigurationError):
            linear_scaled_lr(0.1, 0, 64)


class TestDerivationRules:
    def test_b_min_is_b_max_over_8(self):
        """'b_min is set to a value 8 times smaller than b_max'."""
        assert AdaptiveSGDConfig(b_max=256).b_min == 32
        assert AdaptiveSGDConfig(b_max=64).b_min == 8

    def test_beta_is_half_b_min(self):
        """'the batch size scaling parameter beta to half of b_min'."""
        cfg = AdaptiveSGDConfig(b_max=256)
        assert cfg.beta == cfg.b_min / 2

    def test_mega_batch_is_100_batches(self):
        """'the global model is updated only after a mega-batch having the
        size of 100 batches'."""
        cfg = AdaptiveSGDConfig(b_max=256)
        assert cfg.mega_batch_batches == 100
        assert cfg.mega_batch_size == 100 * 256

    def test_paper_constant_defaults(self):
        cfg = AdaptiveSGDConfig()
        assert cfg.gamma == 0.9       # momentum per the literature
        assert cfg.delta == 0.1       # perturbation factor default
        assert cfg.pert_thr == 0.1    # regularization threshold default

    def test_explicit_overrides_respected(self):
        cfg = AdaptiveSGDConfig(b_max=256, b_min=64, beta=10.0)
        assert cfg.b_min == 64 and cfg.beta == 10.0

    def test_small_b_max_keeps_b_min_at_least_1(self):
        assert AdaptiveSGDConfig(b_max=4).b_min == 1


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(b_max=0),
        dict(base_lr=0.0),
        dict(mega_batch_batches=0),
        dict(gamma=1.5),
        dict(delta=-0.1),
        dict(pert_thr=0.0),
        dict(b_min=300, b_max=256),
        dict(beta=0.0),
        dict(merge_weighting="bogus"),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveSGDConfig(**kwargs)
