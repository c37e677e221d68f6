"""Tests for AdaptiveSGDConfig.for_server — memory-derived b_max (§V-A)."""

import pytest

from repro.core.config import AdaptiveSGDConfig
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import make_server

PAPER_MODEL = (135_909, 128, 670_091)  # Amazon-670k 3-layer MLP


class TestForServer:
    def test_paper_scale_magnitude(self):
        """On 16GB V100s the Amazon-670k model allows thousands of samples."""
        server = make_server(4, seed=0)
        cfg = AdaptiveSGDConfig.for_server(
            server, PAPER_MODEL, avg_nnz_per_sample=76.0
        )
        assert 1000 < cfg.b_max < 50_000
        # Derivation rules still apply on top.
        assert cfg.b_min == cfg.b_max // 8
        assert cfg.beta == cfg.b_min / 2

    def test_batch_actually_fits_every_gpu(self):
        from repro.gpu.cost import StepWorkload

        server = make_server(4, seed=0)
        cfg = AdaptiveSGDConfig.for_server(
            server, PAPER_MODEL, avg_nnz_per_sample=76.0
        )
        n_params = sum(
            PAPER_MODEL[i] * PAPER_MODEL[i + 1] + PAPER_MODEL[i + 1]
            for i in range(2)
        )
        work = StepWorkload(
            cfg.b_max, int(cfg.b_max * 76), tuple(PAPER_MODEL)
        )
        # Working set: replica + gradient, the batch CSR, and float32
        # activations for every layer after the input.
        activations = 4 * cfg.b_max * sum(PAPER_MODEL[1:])
        required = 2 * 4 * n_params + work.batch_bytes + activations
        for gpu in server.gpus:
            assert required <= gpu.memory_bytes

    def test_cap_applies(self):
        server = make_server(2, seed=0)
        cfg = AdaptiveSGDConfig.for_server(
            server, (100, 16, 50), avg_nnz_per_sample=10.0, cap=256
        )
        assert cfg.b_max == 256

    def test_utilization_shrinks_b_max(self):
        server = make_server(2, seed=0)
        full = AdaptiveSGDConfig.for_server(
            server, PAPER_MODEL, avg_nnz_per_sample=76.0, utilization=1.0
        )
        half = AdaptiveSGDConfig.for_server(
            server, PAPER_MODEL, avg_nnz_per_sample=76.0, utilization=0.5
        )
        assert half.b_max < full.b_max

    def test_overrides_forwarded(self):
        server = make_server(2, seed=0)
        cfg = AdaptiveSGDConfig.for_server(
            server, PAPER_MODEL, avg_nnz_per_sample=76.0,
            base_lr=0.5, gamma=0.5, cap=512,
        )
        assert cfg.base_lr == 0.5 and cfg.gamma == 0.5

    def test_invalid_utilization_rejected(self):
        server = make_server(2, seed=0)
        with pytest.raises(ConfigurationError):
            AdaptiveSGDConfig.for_server(
                server, PAPER_MODEL, avg_nnz_per_sample=76.0, utilization=0.0
            )
