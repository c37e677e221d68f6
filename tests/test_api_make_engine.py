"""Tests for repro.api.make_engine — the validated serving facade."""

import numpy as np
import pytest

from repro.api import make_engine
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from repro.serve import (
    ModelSnapshot,
    Predictor,
    ServingConfig,
    ServingEngine,
    SnapshotStore,
)
from repro.sparse.mlp import MLPArchitecture, SparseMLP

ARCH = MLPArchitecture(n_features=40, n_labels=12, hidden=(8,))


def make_snapshot(seed=3):
    return ModelSnapshot(
        arch=ARCH,
        state=SparseMLP(ARCH).init_state(seed=seed),
        meta={"dataset": "unit"},
    )


@pytest.fixture()
def snapshot():
    return make_snapshot()


class TestSources:
    def test_from_snapshot(self, snapshot):
        engine = make_engine(snapshot)
        assert isinstance(engine, ServingEngine)
        assert engine.predictor.snapshot is snapshot
        assert engine.store is None
        assert engine.base_version == 0

    def test_from_header_path(self, snapshot, tmp_path):
        header = snapshot.save(tmp_path / "m")
        for spelling in (header, str(header), tmp_path / "m",
                         str(tmp_path / "m")):
            engine = make_engine(spelling)
            assert np.array_equal(
                engine.predictor.snapshot.state.vector,
                snapshot.state.vector,
            )

    def test_from_store_directory(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path / "s")
        store.publish(snapshot, published_s=0.0)
        store.publish(make_snapshot(seed=9), published_s=1.0)
        engine = make_engine(str(tmp_path / "s"))
        # Auto-subscribed, starting from the version live at sim time 0.
        assert engine.store is not None
        assert engine.store.root == store.root
        assert engine.base_version == 1
        assert np.array_equal(
            engine.predictor.snapshot.state.vector, snapshot.state.vector
        )

    def test_from_store_instance_with_version(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path / "s")
        store.publish(snapshot, published_s=0.0)
        other = make_snapshot(seed=9)
        store.publish(other, published_s=1.0)
        engine = make_engine(store, version=2)
        assert engine.base_version == 2
        assert np.array_equal(
            engine.predictor.snapshot.state.vector, other.state.vector
        )

    def test_from_predictor(self, snapshot):
        predictor = Predictor(snapshot)
        engine = make_engine(predictor, version=3)
        assert engine.predictor is predictor
        assert engine.base_version == 3

    def test_empty_store_rejected(self, tmp_path):
        SnapshotStore(tmp_path / "s")
        with pytest.raises(ConfigurationError, match="empty"):
            make_engine(tmp_path / "s")

    def test_missing_path_raises(self, tmp_path):
        from repro.exceptions import SnapshotError
        with pytest.raises(SnapshotError):
            make_engine(tmp_path / "ghost")

    def test_bad_source_type(self):
        with pytest.raises(ConfigurationError, match="source"):
            make_engine(42)


class TestOptions:
    def test_options_flow_into_config(self, snapshot):
        engine = make_engine(snapshot, mode="sequential", scoring="lsh",
                             max_queue_depth=16)
        assert engine.mode == "sequential"
        assert engine.scoring == "lsh"
        assert engine.config.max_queue_depth == 16

    def test_prebuilt_config(self, snapshot):
        config = ServingConfig(mode="sequential")
        engine = make_engine(snapshot, config=config)
        assert engine.config is config

    def test_config_and_options_conflict(self, snapshot):
        with pytest.raises(ConfigurationError, match="not both"):
            make_engine(snapshot, config=ServingConfig(), mode="adaptive")

    def test_config_type_checked(self, snapshot):
        with pytest.raises(ConfigurationError, match="ServingConfig"):
            make_engine(snapshot, config="adaptive")

    def test_unknown_option_rejected_early(self, snapshot):
        with pytest.raises(ConfigurationError, match="unknown option"):
            make_engine(snapshot, batchsize=8)

    def test_invalid_option_value_rejected(self, snapshot):
        with pytest.raises(ConfigurationError):
            make_engine(snapshot, mode="warp")

    @pytest.mark.parametrize("options, name", [
        (dict(target_latency_s=float("inf")), "target_latency_s"),
        (dict(class_slo_ms={0: 2.0, 1: float("inf")}), r"class_slo_ms\[1\]"),
        (dict(class_slo_ms={0: float("nan")}), r"class_slo_ms\[0\]"),
    ], ids=["target-inf", "class-inf", "class-nan"])
    def test_non_finite_slo_rejected_before_serving(self, snapshot, options,
                                                    name):
        """An infinite SLO once reached the batch sizer, whose error term
        ``(inf - s) / inf`` is NaN, and crashed a worker mid-run."""
        with pytest.raises(ConfigurationError,
                           match=f"{name} must be finite and > 0"):
            make_engine(snapshot, **options)

    def test_use_lsh_rejected_naming_scoring(self, snapshot):
        with pytest.raises(ConfigurationError, match="unknown option") as exc:
            make_engine(snapshot, use_lsh=True)
        assert "'scoring'" in str(exc.value)

    def test_lsh_options_reach_predictor(self, snapshot):
        """The seed is the one LSH option; the geometry is the predictor's
        default unless a built predictor is the source."""
        engine = make_engine(snapshot, scoring="lsh", lsh_seed=7)
        assert engine.predictor.lsh_seed == 7
        assert (engine.predictor.lsh_tables, engine.predictor.lsh_bits) == (
            24, 4
        )
        with pytest.raises(ConfigurationError, match="unknown option"):
            make_engine(snapshot, lsh_tables=8)


class TestServer:
    def test_default_server(self, snapshot):
        engine = make_engine(snapshot, n_gpus=3)
        assert engine.server.n_gpus == 3

    def test_server_override(self, snapshot):
        server = make_server(
            4, cost_params=GpuCostParams.tiny_model_profile(), seed=1
        )
        engine = make_engine(snapshot, server=server)
        assert engine.server is server
