"""Tests for the ``repro runs`` verbs and registry-aware CLI plumbing."""

import json
import sqlite3

import pytest

import repro.registry.index as registry_index
import repro.registry.record as registry_record
from repro.cli import main
from repro.registry import RunRegistry


@pytest.fixture(scope="module")
def registry_root(tmp_path_factory):
    """One registry holding two CLI-registered train runs."""
    root = tmp_path_factory.mktemp("registry") / "reg"
    for seed in (0, 1):
        assert main([
            "train", "--dataset", "micro", "--time-budget-s", "0.02",
            "--gpus", "2", "--seed", str(seed), "--registry", str(root),
        ]) == 0
    return root


@pytest.fixture(scope="module")
def train_ids(registry_root):
    records = RunRegistry(registry_root, create=False).list(kind="train")
    assert len(records) == 2
    return [r.run_id for r in records]  # newest first


class TestRunsLs:
    def test_table_lists_both_runs(self, capsys, registry_root, train_ids):
        capsys.readouterr()
        assert main(["runs", "ls", "--registry", str(registry_root)]) == 0
        out = capsys.readouterr().out
        for run_id in train_ids:
            assert run_id in out
        assert "Adaptive SGD" in out and "green" in out

    def test_json_and_filters(self, capsys, registry_root, train_ids):
        capsys.readouterr()
        assert main([
            "runs", "ls", "--registry", str(registry_root),
            "--kind", "train", "--status", "green", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["run_id"] for r in rows] == train_ids
        assert all(r["metrics"]["duration_s"] > 0 for r in rows)

    def test_missing_registry_fails(self, capsys, tmp_path):
        assert main([
            "runs", "ls", "--registry", str(tmp_path / "ghost"),
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_registry_renders(self, capsys, tmp_path):
        RunRegistry(tmp_path / "empty")
        capsys.readouterr()
        assert main([
            "runs", "ls", "--registry", str(tmp_path / "empty"),
        ]) == 0
        assert "no runs registered" in capsys.readouterr().out


class TestRunsShow:
    def test_show_renders_identity_and_metrics(self, capsys, registry_root,
                                               train_ids):
        capsys.readouterr()
        assert main([
            "runs", "show", train_ids[0], "--registry", str(registry_root),
        ]) == 0
        out = capsys.readouterr().out
        assert train_ids[0] in out
        assert "headline metrics" in out and "duration_s" in out

    def test_show_json_carries_manifest(self, capsys, registry_root,
                                        train_ids):
        capsys.readouterr()
        assert main([
            "runs", "show", train_ids[0], "--registry", str(registry_root),
            "--json",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["run_id"] == train_ids[0]
        assert record["manifest"]["dataset"] == "micro"

    def test_unknown_run_fails(self, capsys, registry_root):
        assert main([
            "runs", "show", "train-nope", "--registry", str(registry_root),
        ]) == 1
        assert "error" in capsys.readouterr().err


class TestRunsHistory:
    def test_history_sparkline(self, capsys, registry_root):
        capsys.readouterr()
        assert main([
            "runs", "history", "duration_s", "--registry",
            str(registry_root),
        ]) == 0
        out = capsys.readouterr().out
        assert "duration_s" in out and "2 run(s)" in out
        assert any(block in out for block in "▁▂▃▄▅▆▇█")

    def test_history_json(self, capsys, registry_root, train_ids):
        capsys.readouterr()
        assert main([
            "runs", "history", "duration_s", "--registry",
            str(registry_root), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "duration_s"
        # Chronological: oldest first, i.e. the reverse of ls order.
        assert [p["run_id"] for p in payload["history"]] == train_ids[::-1]

    def test_unknown_metric_renders_empty(self, capsys, registry_root):
        capsys.readouterr()
        assert main([
            "runs", "history", "no_such_metric", "--registry",
            str(registry_root),
        ]) == 0
        assert "no runs recorded" in capsys.readouterr().out


class TestRunsDiff:
    def test_diff_renders_comparison(self, capsys, registry_root, train_ids):
        capsys.readouterr()
        assert main([
            "runs", "diff", train_ids[1], train_ids[0],
            "--registry", str(registry_root),
        ]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "candidate" in out

    def test_diff_json_matches_compare_byte_for_byte(self, capsys,
                                                     registry_root,
                                                     train_ids):
        # The acceptance criterion: `runs diff` and `repro compare` share
        # one comparison + serialization path, so their JSON is identical.
        a, b = train_ids[1], train_ids[0]
        capsys.readouterr()
        assert main([
            "runs", "diff", a, b, "--registry", str(registry_root), "--json",
        ]) == 0
        diff_out = capsys.readouterr().out
        assert main([
            "compare", a, b, "--registry", str(registry_root), "--json",
        ]) == 0
        compare_out = capsys.readouterr().out
        assert diff_out == compare_out
        assert json.loads(diff_out)["phases"]

    def test_diff_unknown_run_fails(self, capsys, registry_root, train_ids):
        assert main([
            "runs", "diff", train_ids[0], "train-nope",
            "--registry", str(registry_root),
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_traceless_run_fails_cleanly_everywhere(self, capsys, tmp_path):
        # Bench runs index no telemetry trace; every verb that resolves a
        # run_id to a trace must print the clean `error: ...` + exit 1,
        # not a raw traceback.
        root = tmp_path / "reg"
        registry = RunRegistry(root)
        for i in range(2):
            registry.register(
                {"run_id": f"bench-{i}", "kind": "bench",
                 "created_s": float(i)}
            )
        for argv in (
            ["runs", "diff", "bench-0", "bench-1"],
            ["compare", "bench-0", "bench-1"],
            ["analyze", "bench-0"],
        ):
            assert main([*argv, "--registry", str(root)]) == 1
            err = capsys.readouterr().err
            assert "error:" in err and "no telemetry trace" in err


class TestRunsGc:
    def test_dry_run_previews_without_deleting(self, capsys, tmp_path):
        root = tmp_path / "reg"
        registry = RunRegistry(root)
        for i in range(3):
            registry.register(
                {"run_id": f"train-{i}", "kind": "train",
                 "created_s": float(i)}
            )
        capsys.readouterr()
        assert main([
            "runs", "gc", "--keep", "1", "--dry-run",
            "--registry", str(root),
        ]) == 0
        out = capsys.readouterr().out
        assert "would delete 2 run(s)" in out
        assert len(registry.list()) == 3
        assert main([
            "runs", "gc", "--keep", "1", "--registry", str(root),
        ]) == 0
        assert "deleted 2 run(s)" in capsys.readouterr().out
        assert [r.run_id for r in registry.list()] == ["train-2"]


class TestRegistryPlumbing:
    def test_analyze_accepts_run_id(self, capsys, registry_root, train_ids):
        capsys.readouterr()
        assert main([
            "analyze", train_ids[0], "--registry", str(registry_root),
            "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["runs"]) == 1
        assert report["runs"][0]["attribution"]["max_residual"] <= 1e-6

    def test_analyze_promtext_carries_run_id_label(self, capsys, tmp_path,
                                                   registry_root, train_ids):
        prom = tmp_path / "metrics.prom"
        assert main([
            "analyze", train_ids[0], "--registry", str(registry_root),
            "--promtext", str(prom),
        ]) == 0
        text = prom.read_text()
        assert f'run_id="{train_ids[0]}"' in text

    def test_env_var_registers(self, capsys, tmp_path, monkeypatch):
        root = tmp_path / "env-reg"
        monkeypatch.setenv("REPRO_REGISTRY", str(root))
        assert main([
            "train", "--dataset", "micro", "--time-budget-s", "0.02",
            "--gpus", "2",
        ]) == 0
        assert "registered:" in capsys.readouterr().out
        records = RunRegistry(root, create=False).list(kind="train")
        assert len(records) == 1

    def test_serve_registers_per_mode(self, capsys, tmp_path, monkeypatch):
        from repro.registry import record

        probes = []
        git_state = record.git_state
        monkeypatch.setattr(
            record, "git_state", lambda: probes.append(1) or git_state())
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        stem = tmp_path / "model"
        root = tmp_path / "reg"
        assert main([
            "snapshot", str(stem), "--dataset", "micro",
            "--time-budget-s", "0.02", "--gpus", "2",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", str(stem), "--requests", "100", "--mode", "both",
            "--registry", str(root),
        ]) == 0
        assert "registered:" in capsys.readouterr().out
        assert len(probes) == 1  # one git probe for both modes
        records = RunRegistry(root, create=False).list(kind="serve")
        assert {r.algorithm for r in records} == {
            "serve-sequential", "serve-adaptive",
        }
        for record in records:
            assert record.metrics["throughput_rps"] > 0
            assert record.manifest["dataset"] == "micro"
        # Both modes share one telemetry archive; diff works across them.
        ids = [r.run_id for r in records]
        capsys.readouterr()
        assert main([
            "runs", "diff", ids[1], ids[0], "--registry", str(root),
        ]) == 0
        assert "candidate" in capsys.readouterr().out

    def test_trace_grid_encodes_and_probes_git_once(self, capsys, tmp_path,
                                                    monkeypatch):
        """``--out`` + ``--registry``: the registry archive is a byte copy
        of the exported JSONL (one ``write_jsonl``), and the grid's runs
        share one ``git_state`` probe."""
        from repro.registry import record
        from repro.telemetry import export

        calls = {"write_jsonl": 0, "git_state": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        write = counted("write_jsonl", export.write_jsonl)
        monkeypatch.setattr(export, "write_jsonl", write)
        monkeypatch.setattr(record, "write_jsonl", write)
        monkeypatch.setattr(
            record, "git_state", counted("git_state", record.git_state))
        root = tmp_path / "reg"
        assert main([
            "trace", "--dataset", "micro", "--time-budget-s", "0.003",
            "--gpus", "2", "--algorithms", "adaptive", "elastic",
            "--out", str(tmp_path / "G"), "--registry", str(root),
        ]) == 0
        assert calls == {"write_jsonl": 1, "git_state": 1}
        registry = RunRegistry(root, create=False)
        records = registry.list(kind="train")
        assert len(records) == 2
        archives = {registry.resolve_trace(r.run_id) for r in records}
        assert len(archives) == 1
        exported = (tmp_path / "G.telemetry.jsonl").read_bytes()
        assert exported and archives.pop().read_bytes() == exported
        assert len({r.manifest.get("git_commit") for r in records}) == 1
        # Without --out there is no export to copy: the registry encodes.
        capsys.readouterr()
        assert main([
            "trace", "--dataset", "micro", "--time-budget-s", "0.003",
            "--gpus", "2", "--summary", "--registry", str(tmp_path / "reg2"),
        ]) == 0
        assert calls["write_jsonl"] == 2

    def test_empty_registry_flag_is_unset(self, capsys, tmp_path, monkeypatch):
        """``--registry ''`` means "not given", never "the cwd"."""
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        monkeypatch.chdir(tmp_path)
        train = ["train", "--dataset", "micro", "--time-budget-s", "0.02",
                 "--gpus", "2"]
        assert main(train + ["--registry", ""]) == 0
        assert "registered:" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
        # Read side: falls back exactly as an omitted flag does — to
        # .repro-runs (absent here, so both fail the same way) ...
        assert main(["runs", "ls", "--registry", ""]) == 1
        empty_err = capsys.readouterr().err
        assert main(["runs", "ls"]) == 1
        assert capsys.readouterr().err == empty_err
        assert ".repro-runs" in empty_err
        # ... and to $REPRO_REGISTRY when that names a root.
        monkeypatch.setenv("REPRO_REGISTRY", str(tmp_path / "env-reg"))
        assert main(train + ["--registry", ""]) == 0
        assert "registered:" in capsys.readouterr().out
        assert main(["runs", "ls", "--registry", ""]) == 0
        assert "train-" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["env-reg"]


class TestCorruptIndex:
    """A ``runs.db`` cut short or replaced by garbage is a typed error
    naming the file on every verb, and the file is left as it was."""

    @pytest.fixture(params=["truncated", "not-sqlite"])
    def corrupt_root(self, request, registry_root, tmp_path):
        good = (registry_root / "runs.db").read_bytes()
        root = tmp_path / "reg"
        root.mkdir()
        (root / "runs.db").write_bytes(
            good[:200] if request.param == "truncated" else b"\x07junk" * 512
        )
        return root

    @pytest.mark.parametrize("argv", [
        ["runs", "ls"],
        ["train", "--dataset", "micro", "--time-budget-s", "0.01",
         "--gpus", "2"],
    ], ids=["runs-ls", "train"])
    def test_one_error_line_and_the_file_untouched(
        self, argv, corrupt_root, capsys
    ):
        db = corrupt_root / "runs.db"
        before = db.read_bytes()
        capsys.readouterr()
        assert main([*argv, "--registry", str(corrupt_root)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {db}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert db.read_bytes() == before


class TestLockedIndex:
    """Another process holding ``runs.db`` locked past the busy timeout is
    the same one-line typed error, and leaves no run directory behind."""

    @pytest.fixture
    def locked_root(self, tmp_path, monkeypatch):
        root = tmp_path / "reg"
        RunRegistry(root)
        monkeypatch.setattr(registry_index, "BUSY_TIMEOUT_S", 0.05)
        holder = sqlite3.connect(root / "runs.db", isolation_level=None)
        holder.execute("BEGIN EXCLUSIVE")
        yield root
        holder.execute("ROLLBACK")
        holder.close()

    @pytest.mark.parametrize("argv", [
        ["runs", "ls"],
        ["train", "--dataset", "micro", "--time-budget-s", "0.01",
         "--gpus", "2"],
    ], ids=["runs-ls", "train"])
    def test_one_error_line_and_no_run_directory(
        self, argv, locked_root, capsys
    ):
        capsys.readouterr()
        assert main([*argv, "--registry", str(locked_root)]) == 1
        captured = capsys.readouterr()
        db = locked_root / "runs.db"
        assert captured.err == f"error: {db}: database is locked\n"
        assert captured.out == ""
        assert list((locked_root / "runs").iterdir()) == []

    def test_lock_taken_mid_run_leaves_no_run_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        """The index opens fine, then is locked before registration: the
        run directory laid out for it is removed again."""
        root = tmp_path / "reg"
        monkeypatch.setattr(registry_index, "BUSY_TIMEOUT_S", 0.05)
        holders = []
        probe = registry_record.git_state

        def lock_then_probe():
            holders.append(sqlite3.connect(root / "runs.db", isolation_level=None))
            holders[-1].execute("BEGIN EXCLUSIVE")
            return probe()

        monkeypatch.setattr(registry_record, "git_state", lock_then_probe)
        assert main([
            "train", "--dataset", "micro", "--time-budget-s", "0.01",
            "--gpus", "2", "--registry", str(root),
        ]) == 1
        holders[0].execute("ROLLBACK")
        holders[0].close()
        captured = capsys.readouterr()
        assert captured.err == f"error: {root / 'runs.db'}: database is locked\n"
        assert list((root / "runs").iterdir()) == []
        assert RunRegistry(root, create=False).list() == []
