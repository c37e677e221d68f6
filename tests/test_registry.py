"""Tests for repro.registry: schema, indexing, baselines, gc."""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, DataFormatError
from repro.harness.traces import TracePoint, TrainingTrace
from repro.registry import (
    BASELINE_WINDOW,
    RunRegistry,
    SCHEMA_VERSION,
    default_registry,
    flatten_metrics,
    history_baseline,
    new_run_id,
    record_bench_run,
    record_train_run,
)
from repro.registry import baseline
from repro.registry.index import DB_NAME


def put(
    registry,
    run_id,
    *,
    kind="bench",
    status="green",
    tags=(),
    metrics=None,
    created_s=0.0,
):
    """Register a minimal run row for index-level tests."""
    registry.register(
        {"run_id": run_id, "kind": kind, "created_s": created_s},
        metrics or {},
        status=status,
        tags=tags,
    )


class TestSchema:
    def test_fresh_registry_at_current_version(self, tmp_path):
        registry = RunRegistry(tmp_path)
        assert registry.schema_version() == SCHEMA_VERSION
        assert (tmp_path / DB_NAME).exists()

    def test_empty_db_file_migrates(self, tmp_path):
        # A zero-table database (user_version 0) initialises on open.
        sqlite3.connect(tmp_path / DB_NAME).close()
        registry = RunRegistry(tmp_path)
        assert registry.schema_version() == SCHEMA_VERSION
        put(registry, "bench-x")
        assert registry.get("bench-x").status == "green"

    def test_newer_schema_rejected(self, tmp_path):
        RunRegistry(tmp_path)
        conn = sqlite3.connect(tmp_path / DB_NAME)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(DataFormatError, match="newer"):
            RunRegistry(tmp_path)

    def test_missing_registry_rejected_without_create(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no run registry"):
            RunRegistry(tmp_path / "nowhere", create=False)

    def test_default_registry_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        assert default_registry(None) is None
        # The fallback root is relative to cwd; point cwd at tmp first.
        monkeypatch.chdir(tmp_path)
        fell_back = default_registry(None, fallback=True)
        assert fell_back is not None
        assert fell_back.root == Path(".repro-runs")
        monkeypatch.setenv("REPRO_REGISTRY", str(tmp_path / "env-reg"))
        via_env = default_registry(None)
        assert via_env is not None and via_env.root == tmp_path / "env-reg"


class TestRegister:
    def test_round_trip(self, tmp_path):
        registry = RunRegistry(tmp_path)
        manifest = {
            "run_id": "train-a",
            "kind": "train",
            "algorithm": "Adaptive SGD",
            "dataset": "micro",
            "n_devices": 4,
            "seed": 7,
            "created_s": 3.0,
            "sim_duration_s": 1.5,
            "git_commit": "abc123",
            "git_dirty": True,
            "spec": {"b_max": 64},
        }
        registry.register(
            manifest, {"duration_s": 1.5}, tags=["exp", "baseline"]
        )
        record = registry.get("train-a")
        assert record.algorithm == "Adaptive SGD"
        assert record.n_devices == 4 and record.seed == 7
        assert record.git_dirty is True
        assert record.tags == ("baseline", "exp")
        assert record.metrics == {"duration_s": 1.5}
        assert record.manifest["spec"] == {"b_max": 64}
        assert record.as_dict()["tags"] == ["baseline", "exp"]

    def test_requires_run_id_and_kind(self, tmp_path):
        registry = RunRegistry(tmp_path)
        with pytest.raises(ConfigurationError):
            registry.register({"kind": "train"})
        with pytest.raises(ConfigurationError):
            registry.register({"run_id": "x"})

    def test_bad_status_rejected(self, tmp_path):
        registry = RunRegistry(tmp_path)
        with pytest.raises(ConfigurationError, match="status"):
            put(registry, "bench-x", status="amber")

    def test_non_finite_metric_rejected(self, tmp_path):
        registry = RunRegistry(tmp_path)
        with pytest.raises(DataFormatError, match="non-finite"):
            put(registry, "bench-x", metrics={"speedup": float("nan")})
        assert not registry.contains("bench-x")

    def test_reregister_replaces_atomically(self, tmp_path):
        # Last writer wins: the second registration's metrics and tags
        # fully replace the first's — no stale leftovers.
        registry = RunRegistry(tmp_path)
        put(registry, "bench-x", metrics={"old": 1.0}, tags=["first"])
        put(registry, "bench-x", metrics={"new": 2.0}, tags=["second"])
        record = registry.get("bench-x")
        assert record.metrics == {"new": 2.0}
        assert record.tags == ("second",)

    def test_concurrent_register_same_run_id(self, tmp_path):
        # Two processes registering the same run_id concurrently must leave
        # the index in one writer's complete state, never an interleaving.
        RunRegistry(tmp_path)  # settle the schema first
        script = (
            "import sys\n"
            "from repro.registry import RunRegistry\n"
            "root, run_id, name = sys.argv[1:4]\n"
            "reg = RunRegistry(root)\n"
            "for _ in range(5):\n"
            "    reg.register(\n"
            "        {'run_id': run_id, 'kind': 'bench'},\n"
            "        {name: 1.0, name + '_twin': 2.0},\n"
            "        tags=['writer:' + name],\n"
            "    )\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), "bench-x", name],
                env=env,
            )
            for name in ("alpha", "beta")
        ]
        assert [p.wait(timeout=120) for p in procs] == [0, 0]
        record = RunRegistry(tmp_path).get("bench-x")
        assert set(record.metrics) in (
            {"alpha", "alpha_twin"},
            {"beta", "beta_twin"},
        )
        winner = sorted(record.metrics)[0]
        assert record.tags == (f"writer:{winner}",)

    def test_unknown_run_rejected(self, tmp_path):
        registry = RunRegistry(tmp_path)
        put(registry, "bench-x")
        assert registry.get("bench-x").run_id == "bench-x"
        with pytest.raises(ConfigurationError):
            registry.get("ghost")


class TestQueries:
    def test_list_newest_first_with_filters(self, tmp_path):
        registry = RunRegistry(tmp_path)
        put(registry, "train-1", kind="train", created_s=1.0)
        put(registry, "bench-2", kind="bench", created_s=2.0, tags=["bench:h"])
        put(registry, "train-3", kind="train", created_s=3.0, status="red")
        assert [r.run_id for r in registry.list()] == [
            "train-3", "bench-2", "train-1",
        ]
        assert [r.run_id for r in registry.list(kind="train")] == [
            "train-3", "train-1",
        ]
        assert [r.run_id for r in registry.list(status="green")] == [
            "bench-2", "train-1",
        ]
        assert [r.run_id for r in registry.list(tag="bench:h")] == ["bench-2"]
        assert [r.run_id for r in registry.list(limit=1)] == ["train-3"]

    def test_metric_history_chronological_and_green_only(self, tmp_path):
        registry = RunRegistry(tmp_path)
        for i in range(4):
            put(
                registry,
                f"bench-{i}",
                created_s=float(i),
                metrics={"speedup": float(i + 1)},
                status="red" if i == 2 else "green",
            )
        history = registry.metric_history("speedup")
        assert history == [("bench-0", 1.0), ("bench-1", 2.0), ("bench-3", 4.0)]
        # limit keeps the newest entries but still returns oldest-first.
        assert registry.metric_history("speedup", limit=2) == [
            ("bench-1", 2.0), ("bench-3", 4.0),
        ]
        assert registry.metric_names() == ["speedup"]


class TestBaseline:
    def test_no_registry_falls_back(self):
        resolved = history_baseline(None, "speedup", fallback=3.0)
        assert resolved.value == 3.0 and resolved.source == "fallback"
        assert "fallback" in resolved.describe()

    def test_below_min_runs_falls_back(self, tmp_path):
        registry = RunRegistry(tmp_path)
        put(registry, "bench-0", metrics={"speedup": 9.0}, tags=["bench:h"])
        resolved = history_baseline(
            registry, "speedup", bench="h", fallback=3.0
        )
        assert resolved.source == "fallback" and resolved.value == 3.0

    def test_median_of_window(self, tmp_path, monkeypatch):
        monkeypatch.setattr(baseline, "BASELINE_WINDOW", 3)
        registry = RunRegistry(tmp_path)
        for i, value in enumerate([10.0, 1.0, 2.0, 3.0]):
            put(
                registry,
                f"bench-{i}",
                created_s=float(i),
                metrics={"speedup": value},
                tags=["bench:h"],
            )
        resolved = history_baseline(
            registry, "speedup", bench="h", fallback=99.0
        )
        # Window keeps the newest 3 (1, 2, 3); median is 2, and the oldest
        # run (value 10) never enters.
        assert resolved.source == "history"
        assert resolved.value == 2.0
        assert resolved.n == 3
        assert resolved.run_ids == ("bench-1", "bench-2", "bench-3")
        assert "median of 3 green run(s)" in resolved.describe()

    def test_red_runs_never_contribute(self, tmp_path, monkeypatch):
        monkeypatch.setattr(baseline, "MIN_RUNS", 1)
        registry = RunRegistry(tmp_path)
        put(registry, "bench-0", metrics={"speedup": 5.0}, tags=["bench:h"],
            created_s=0.0)
        put(registry, "bench-1", metrics={"speedup": 0.1}, tags=["bench:h"],
            created_s=1.0, status="red")
        resolved = history_baseline(
            registry, "speedup", bench="h", fallback=None
        )
        assert resolved.value == 5.0 and resolved.n == 1


class TestGc:
    def test_keeps_newest_per_kind(self, tmp_path):
        registry = RunRegistry(tmp_path)
        for i in range(4):
            put(registry, f"train-{i}", kind="train", created_s=float(i))
        doomed = registry.gc(keep=2, dry_run=True)
        assert doomed == ["train-0", "train-1"]
        assert registry.contains("train-0")  # dry run deletes nothing
        assert registry.gc(keep=2) == ["train-0", "train-1"]
        assert not registry.contains("train-0")
        assert registry.contains("train-2") and registry.contains("train-3")

    def test_never_deletes_the_baseline_window(self, tmp_path):
        registry = RunRegistry(tmp_path)
        put(registry, "train-0", kind="train", created_s=0.0)
        for i in range(BASELINE_WINDOW + 2):
            put(registry, f"bench-{i}", created_s=float(i),
                metrics={"speedup": 1.0}, tags=["bench:h"])
        doomed = registry.gc(keep=0)
        # The newest BASELINE_WINDOW greens of every bench tag survive;
        # nothing else does.
        survivors = {r.run_id for r in registry.list()}
        assert survivors == {
            f"bench-{i}" for i in range(2, BASELINE_WINDOW + 2)
        }
        assert doomed == ["bench-0", "train-0", "bench-1"]

    def test_keeps_shared_trace_archive_owner(self, tmp_path):
        # Multi-mode serve registrations archive one telemetry file into
        # the *first* sibling's directory; gc must not delete that owner
        # while a newer sibling's trace_path still points into it.
        registry = RunRegistry(tmp_path)
        archive = registry.run_dir("serve-0") / "telemetry.jsonl"
        archive.parent.mkdir(parents=True)
        archive.write_text("")
        rel = "runs/serve-0/telemetry.jsonl"
        registry.register({"run_id": "serve-0", "kind": "serve",
                           "created_s": 0.0, "trace_path": rel})
        registry.register({"run_id": "serve-1", "kind": "serve",
                           "created_s": 1.0, "trace_path": rel})
        assert registry.gc(keep=1) == []
        assert registry.contains("serve-0") and archive.exists()
        assert registry.resolve_trace("serve-1").exists()
        # Once the referencing sibling is gone the owner is collectable.
        registry.gc(keep=0)
        assert not registry.contains("serve-0")
        assert not archive.exists()

    def test_protects_metric_history_per_metric(self, tmp_path):
        # Section-filtered bench invocations index only their section's
        # metrics, so the runs carrying another metric's history can be
        # older than the tag's newest window — they must survive too, or
        # that gate's baseline silently shifts.
        registry = RunRegistry(tmp_path)
        for i in range(2):
            put(registry, f"bench-{i}", created_s=float(i),
                metrics={"scatter": 1.0, "gather": 1.0}, tags=["bench:h"])
        for i in range(2, 2 + BASELINE_WINDOW):
            put(registry, f"bench-{i}", created_s=float(i),
                metrics={"gather": 1.0}, tags=["bench:h"])
        assert registry.gc(keep=0) == []
        history = registry.metric_history("scatter", tag="bench:h")
        assert [run_id for run_id, _ in history] == ["bench-0", "bench-1"]

    def test_removes_run_directories(self, tmp_path):
        registry = RunRegistry(tmp_path)
        put(registry, "train-0", kind="train", created_s=0.0)
        put(registry, "train-1", kind="train", created_s=1.0)
        old_dir = registry.run_dir("train-0")
        old_dir.mkdir(parents=True)
        (old_dir / "manifest.json").write_text("{}")
        registry.gc(keep=1)
        assert not old_dir.exists()

    def test_negative_keep_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RunRegistry(tmp_path).gc(keep=-1)


def make_trace(accs, algorithm="Adaptive SGD", dataset="micro"):
    trace = TrainingTrace(algorithm=algorithm, dataset=dataset, n_devices=2)
    for i, acc in enumerate(accs):
        trace.record_point(TracePoint(
            time_s=float(i), epochs=float(i), updates=i * 10,
            samples=i * 100, accuracy=acc, loss=1.0 / (i + 1),
        ))
    trace.metadata = {"init_seed": 3}
    return trace


class TestRecord:
    def test_new_run_id_shape_and_uniqueness(self):
        ids = {new_run_id("train", dataset="micro") for _ in range(50)}
        assert len(ids) == 50
        assert all(i.startswith("train-") for i in ids)

    def test_flatten_metrics(self):
        flat = flatten_metrics({
            "sections": {"gather": {"speedup": 2.0, "ok": True}},
            "label": "xml",
            "series": [1, 2, 3],
            "bad": float("inf"),
            "n": 4,
        })
        assert flat == {
            "sections/gather/speedup": 2.0,
            "sections/gather/ok": 1.0,
            "n": 4.0,
        }

    def test_record_train_run_round_trip(self, tmp_path):
        registry = RunRegistry(tmp_path)
        run_id = record_train_run(
            registry, make_trace([0.1, 0.4, 0.6]), spec={"b_max": 64}
        )
        record = registry.get(run_id)
        assert record.kind == "train"
        assert record.algorithm == "Adaptive SGD"
        assert record.dataset == "micro"
        assert record.seed == 3
        assert record.metrics["best_accuracy"] == pytest.approx(0.6)
        assert record.metrics["duration_s"] == pytest.approx(2.0)
        assert record.manifest["spec"] == {"b_max": 64}

        run_dir = registry.run_dir(run_id)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["run_id"] == run_id
        report = json.loads((run_dir / "report.json").read_text())
        assert report["metrics"]["final_accuracy"] == pytest.approx(0.6)
        assert registry.metric_history("duration_s", kind="train") == [
            (run_id, 2.0)
        ]

    def test_each_run_kind_writes_exactly_its_files(self, tmp_path,
                                                     monkeypatch, capsys):
        """A run directory holds its manifest, its report, a train run's
        trace and, in the first run a recorder archived, that telemetry:
        no file repeats what another one in the directory holds."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        registry = RunRegistry(tmp_path / "reg")
        reg = ["--registry", str(registry.root)]
        record_train_run(registry, make_trace([0.1, 0.4]))
        record_bench_run(registry, "h", {"speedup": 2.0})
        stem = str(tmp_path / "model")
        tiny = ["--dataset", "micro", "--gpus", "2", "--time-budget-s"]
        assert main(["snapshot", stem, *tiny, "0.02"]) == 0
        assert main(["serve", stem, "--requests", "50", "--mode", "both",
                     *reg]) == 0
        assert main(["trace", *tiny, "0.003", "--algorithms", "adaptive",
                     "elastic", "--summary", *reg]) == 0
        capsys.readouterr()
        layout = sorted(
            (record.kind, record.algorithm, sorted(
                path.name for path in registry.run_dir(record.run_id).iterdir()
            ))
            for record in registry.list()
        )
        base = ["manifest.json", "report.json"]
        trace = ["train_trace.json", "train_trace.npz"]
        assert layout == [
            ("bench", "h", base),
            ("serve", "serve-adaptive", base),
            ("serve", "serve-sequential", [*base, "telemetry.jsonl"]),
            ("train", "Adaptive SGD", [*base, "telemetry.jsonl", *trace]),
            ("train", "Adaptive SGD", [*base, *trace]),
            ("train", "Elastic SGD", [*base, *trace]),
        ]

    def test_interrupted_registration_leaves_no_index_row(self, tmp_path,
                                                          monkeypatch):
        """The index row is written last: a run whose directory is
        incomplete is not in ``runs.db``."""
        registry = RunRegistry(tmp_path)
        replace = os.replace

        def killed_at_the_report(src, dst):
            if Path(dst).name == "report.json":
                raise OSError("killed")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", killed_at_the_report)
        with pytest.raises(OSError, match="killed"):
            record_train_run(registry, make_trace([0.1, 0.4]))
        monkeypatch.undo()
        assert registry.list() == []
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert not (run_dir / "report.json").exists()

    def test_stored_manifest_is_the_sorted_strict_encoding(self, tmp_path):
        registry = RunRegistry(tmp_path)
        run_id = record_train_run(
            registry, make_trace([0.1]), spec={"out": Path("x/y"), "b": 1}
        )
        manifest = json.loads(
            (registry.run_dir(run_id) / "manifest.json").read_text()
        )
        with sqlite3.connect(registry.db_path) as conn:
            (stored,) = conn.execute("SELECT manifest FROM runs").fetchone()
        assert stored == json.dumps(manifest, sort_keys=True, allow_nan=False)
        assert manifest["spec"] == {"out": "x/y", "b": 1}

    def test_record_bench_run_tags_and_status(self, tmp_path):
        registry = RunRegistry(tmp_path)
        run_id = record_bench_run(
            registry,
            "hotpath",
            {"sections": {"gather": {"speedup": 2.0}}},
            status="red",
        )
        record = registry.get(run_id)
        assert record.kind == "bench"
        assert record.status == "red"
        assert "bench:hotpath" in record.tags
        assert record.metrics == {"sections/gather/speedup": 2.0}
        report = json.loads(
            (registry.run_dir(run_id) / "report.json").read_text()
        )
        assert report["results"]["sections"]["gather"]["speedup"] == 2.0
