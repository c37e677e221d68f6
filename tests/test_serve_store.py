"""Tests for repro.serve.store — the versioned publish/subscribe store."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import SnapshotError
from repro.serve.snapshot import ModelSnapshot
from repro.serve.store import (
    MANIFEST_NAME,
    STORE_FORMAT,
    STORE_VERSION,
    SnapshotStore,
)
from repro.sparse.mlp import MLPArchitecture, SparseMLP

ARCH = MLPArchitecture(n_features=40, n_labels=12, hidden=(8,))


def make_snapshot(seed=3, meta=None):
    state = SparseMLP(ARCH).init_state(seed=seed)
    return ModelSnapshot(
        arch=ARCH,
        state=state,
        meta=meta or {"dataset": "unit", "algorithm": "test"},
    )


@pytest.fixture()
def store(tmp_path):
    return SnapshotStore(tmp_path / "store")


class TestPublishLoad:
    def test_versions_are_monotonic_from_one(self, store):
        assert store.publish(make_snapshot(seed=1)) == 1
        assert store.publish(make_snapshot(seed=2)) == 2
        assert store.versions() == [1, 2]
        assert store.latest_version() == 2

    def test_round_trip_is_bit_identical(self, store):
        snapshot = make_snapshot(seed=7)
        v = store.publish(snapshot, published_s=0.5)
        back = store.load(v)
        assert np.array_equal(back.state.vector, snapshot.state.vector)
        assert back.meta["store_version"] == v
        assert back.meta["published_s"] == 0.5
        assert back.meta["dataset"] == "unit"

    def test_entry_carries_integrity_essentials(self, store):
        snapshot = make_snapshot(seed=7)
        v = store.publish(snapshot, published_s=0.25)
        entry = store.entry(v)
        assert entry.stem == "v000001"
        assert entry.published_s == 0.25
        assert entry.n_params == snapshot.state.n_params
        assert entry.l2_norm == pytest.approx(snapshot.state.l2_norm())
        assert entry.meta == {"dataset": "unit", "algorithm": "test"}

    def test_empty_store(self, store):
        assert store.versions() == []
        assert store.latest_version() is None
        assert store.version_at(10.0) is None
        assert store.poll(after=0, now=10.0) is None

    def test_unknown_version_raises(self, store):
        store.publish(make_snapshot())
        with pytest.raises(SnapshotError, match="no version 9"):
            store.entry(9)

    def test_manifest_is_strict_json(self, store):
        store.publish(make_snapshot(), published_s=0.1)
        doc = json.loads(store.manifest_path.read_text())
        assert doc["format"] == STORE_FORMAT
        assert doc["version"] == STORE_VERSION
        assert doc["next_version"] == 2
        assert [e["version"] for e in doc["entries"]] == [1]


class TestPublishTimeOrder:
    def test_negative_time_rejected(self, store):
        with pytest.raises(SnapshotError, match=">= 0"):
            store.publish(make_snapshot(), published_s=-1.0)

    def test_time_travel_rejected(self, store):
        store.publish(make_snapshot(seed=1), published_s=0.5)
        with pytest.raises(SnapshotError, match="precedes"):
            store.publish(make_snapshot(seed=2), published_s=0.2)

    def test_equal_times_allowed(self, store):
        store.publish(make_snapshot(seed=1), published_s=0.5)
        assert store.publish(make_snapshot(seed=2), published_s=0.5) == 2


class TestSimClockVisibility:
    def test_version_at_picks_newest_published(self, store):
        store.publish(make_snapshot(seed=1), published_s=0.0)
        store.publish(make_snapshot(seed=2), published_s=1.0)
        store.publish(make_snapshot(seed=3), published_s=2.0)
        assert store.version_at(0.0) == 1
        assert store.version_at(1.5) == 2
        assert store.version_at(9.0) == 3

    def test_version_at_falls_back_to_oldest(self, store):
        store.publish(make_snapshot(seed=1), published_s=5.0)
        assert store.version_at(0.0) == 1

    def test_poll_filters_on_sim_time(self, store):
        store.publish(make_snapshot(seed=1), published_s=0.0)
        store.publish(make_snapshot(seed=2), published_s=1.0)
        assert store.poll(after=1, now=0.5) is None
        assert store.poll(after=1, now=1.0) == 2
        assert store.poll(after=2, now=9.0) is None

    def test_poll_sees_other_handles_publishes(self, store):
        reader = SnapshotStore(store.root, create=False)
        store.publish(make_snapshot(seed=1), published_s=0.0)
        store.publish(make_snapshot(seed=2), published_s=0.2)
        # poll() re-reads the manifest, so the writer's publishes land.
        assert reader.poll(after=0, now=1.0) == 2


class TestFailurePaths:
    def test_missing_dir_without_create(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot store"):
            SnapshotStore(tmp_path / "ghost", create=False)

    def test_corrupted_npz_raises(self, store):
        v = store.publish(make_snapshot())
        npz = store.root / "v000001.snapshot.npz"
        npz.write_bytes(npz.read_bytes()[:64])
        with pytest.raises(SnapshotError):
            store.load(v)

    def test_publish_interrupted_before_the_manifest(self, store, monkeypatch):
        """Killed after the snapshot files landed and before the manifest
        was replaced: a reopened store holds the previous versions and
        hands out the same id again."""
        store.publish(make_snapshot(seed=1))
        manifest = (store.root / MANIFEST_NAME).read_bytes()
        replace = os.replace

        def killed_at_the_manifest(src, dst):
            if Path(dst).name == MANIFEST_NAME:
                raise OSError("killed")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", killed_at_the_manifest)
        with pytest.raises(OSError, match="killed"):
            store.publish(make_snapshot(seed=2))
        monkeypatch.undo()
        assert (store.root / "v000002.snapshot.npz").exists()
        assert (store.root / MANIFEST_NAME).read_bytes() == manifest
        reopened = SnapshotStore(store.root, create=False)
        assert reopened.versions() == [1]
        assert reopened.publish(make_snapshot(seed=3)) == 2
        assert np.array_equal(
            reopened.load(2).state.vector, make_snapshot(seed=3).state.vector
        )

    def test_version_skew_detected(self, store):
        """Shuffled artifact files must not serve the wrong weights."""
        store.publish(make_snapshot(seed=1))
        store.publish(make_snapshot(seed=2))
        # Each header names its own npz, so swapping just the headers
        # yields internally consistent snapshots under the wrong stems.
        a = (store.root / "v000001.snapshot.json").read_bytes()
        b = (store.root / "v000002.snapshot.json").read_bytes()
        (store.root / "v000001.snapshot.json").write_bytes(b)
        (store.root / "v000002.snapshot.json").write_bytes(a)
        with pytest.raises(SnapshotError, match="version skew"):
            store.load(1)

    def test_param_count_mismatch_detected(self, store):
        v = store.publish(make_snapshot())
        doc = json.loads(store.manifest_path.read_text())
        doc["entries"][0]["n_params"] += 1
        store.manifest_path.write_text(json.dumps(doc))
        store.refresh()
        with pytest.raises(SnapshotError, match="parameters"):
            store.load(v)

    def test_wrong_format_tag(self, store):
        doc = json.loads(store.manifest_path.read_text())
        doc["format"] = "something-else"
        store.manifest_path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="not a"):
            SnapshotStore(store.root)

    def test_future_store_version(self, store):
        doc = json.loads(store.manifest_path.read_text())
        doc["version"] = STORE_VERSION + 1
        store.manifest_path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="store version"):
            SnapshotStore(store.root)

    def test_malformed_entries(self, store):
        doc = json.loads(store.manifest_path.read_text())
        doc["entries"] = [{"version": 1}]
        store.manifest_path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="malformed"):
            SnapshotStore(store.root)

    def test_non_ascending_versions(self, store):
        store.publish(make_snapshot(seed=1))
        store.publish(make_snapshot(seed=2))
        doc = json.loads(store.manifest_path.read_text())
        doc["entries"].reverse()
        store.manifest_path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="ascending"):
            SnapshotStore(store.root)

    def test_stale_next_version(self, store):
        store.publish(make_snapshot())
        doc = json.loads(store.manifest_path.read_text())
        doc["next_version"] = 1
        store.manifest_path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="next_version"):
            SnapshotStore(store.root)


class TestManifestOnlyAudit:
    def test_entries_property_is_a_copy(self, store):
        store.publish(make_snapshot())
        store.entries.clear()
        assert store.versions() == [1]
