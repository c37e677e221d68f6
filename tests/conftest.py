"""Shared fixtures: one small task/server/config reused across the suite."""

from __future__ import annotations

import pytest

from repro.core.config import AdaptiveSGDConfig
from repro.data.registry import load_task
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams


@pytest.fixture(autouse=True)
def no_temp_file_left_behind(request):
    """Every file is written to a ``*.tmp`` sibling and renamed into place
    (DESIGN.md, "Persistence"); whatever a test ran in its ``tmp_path`` —
    a CLI command, a writer made to fail — none may remain."""
    # Resolved before the test so that it is torn down after this check.
    uses_tmp_path = "tmp_path" in request.fixturenames
    tmp_path = request.getfixturevalue("tmp_path") if uses_tmp_path else None
    yield
    left = sorted(tmp_path.rglob("*.tmp")) if uses_tmp_path else []
    assert not left, left


@pytest.fixture(scope="session")
def micro_task():
    """The smallest registered task (session-scoped: generated once)."""
    return load_task("micro", seed=1)


@pytest.fixture()
def het_server():
    """A fresh 4-GPU heterogeneous server with the tiny-model cost profile."""
    return make_server(
        4, seed=5, cost_params=GpuCostParams.tiny_model_profile()
    )


@pytest.fixture()
def uniform_server():
    """A fresh 4-GPU homogeneous server (ablation control)."""
    return make_server(
        4, heterogeneity="uniform", seed=5,
        cost_params=GpuCostParams.tiny_model_profile(),
    )


@pytest.fixture()
def small_config():
    """A config sized for fast test runs (small mega-batches)."""
    return AdaptiveSGDConfig(b_max=64, base_lr=0.2, mega_batch_batches=16)
