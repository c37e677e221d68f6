"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_dataset_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--dataset", "not-a-dataset"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "micro" in out and "amazon670k-bench" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Amazon-670k" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "gap" in out

    def test_allreduce(self, capsys):
        assert main(["allreduce"]) == 0
        out = capsys.readouterr().out
        assert "ring" in out and "tree" in out

    def test_fig6_small(self, capsys):
        assert main([
            "fig6", "--dataset", "micro", "--time-budget-s", "0.02",
            "--gpus", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 6a" in out and "Figure 6b" in out

    def test_train_and_save(self, capsys, tmp_path):
        stem = tmp_path / "run"
        assert main([
            "train", "--dataset", "micro", "--time-budget-s", "0.02",
            "--gpus", "2", "--save", str(stem),
        ]) == 0
        out = capsys.readouterr().out
        assert "best accuracy" in out
        assert stem.with_suffix(".json").exists()
        assert stem.with_suffix(".npz").exists()

        from repro.harness.store import load_trace

        trace = load_trace(stem)
        assert trace.algorithm == "Adaptive SGD"

    def test_fig4_micro(self, capsys):
        assert main([
            "fig4", "--dataset", "micro", "--time-budget-s", "0.02",
            "--gpus", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "time-to-accuracy summary" in out

    def test_trace_exports_timeline(self, capsys, tmp_path):
        import json

        stem = tmp_path / "t"
        assert main([
            "trace", "--dataset", "micro", "--time-budget-s", "0.02",
            "--gpus", "2", "--algorithms", "adaptive", "minibatch",
            "--out", str(stem),
        ]) == 0
        out = capsys.readouterr().out
        assert "Telemetry summary" in out and "perfetto" in out.lower()
        trace_path = tmp_path / "t.trace.json"
        jsonl_path = tmp_path / "t.telemetry.jsonl"
        assert trace_path.exists() and jsonl_path.exists()
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        assert {e["ph"] for e in trace["traceEvents"]} <= {"X", "i", "C", "M"}
        processes = [e for e in trace["traceEvents"]
                     if e["name"] == "process_name"]
        assert len(processes) == 2  # one process per run
        assert set(trace["otherData"]) == {"label", "clock"}
        for line in jsonl_path.read_text().splitlines():
            json.loads(line)

    def test_trace_summary_flag_skips_files(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "trace", "--dataset", "micro", "--time-budget-s", "0.02",
            "--gpus", "2", "--algorithms", "adaptive", "--summary",
        ]) == 0
        out = capsys.readouterr().out
        assert "Telemetry summary" in out
        assert "Time attribution" in out
        assert "Device utilization" in out
        assert "Straggler analysis" in out
        assert list(tmp_path.iterdir()) == []  # --summary writes nothing


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One archived two-run trace shared by the analyze/compare tests."""
    tmp = tmp_path_factory.mktemp("traces")
    stem = tmp / "t"
    assert main([
        "trace", "--dataset", "micro", "--time-budget-s", "0.02",
        "--gpus", "2", "--algorithms", "adaptive", "minibatch",
        "--out", str(stem),
    ]) == 0
    return tmp / "t.telemetry.jsonl", tmp / "t.trace.json"


class TestAnalyzeCommand:
    def test_analyze_table(self, capsys, traced):
        jsonl_path, _ = traced
        capsys.readouterr()
        assert main(["analyze", str(jsonl_path)]) == 0
        out = capsys.readouterr().out
        assert "Time attribution" in out
        assert "Device utilization" in out
        assert "Straggler analysis" in out
        assert "Findings" in out

    def test_analyze_json(self, capsys, traced):
        import json

        jsonl_path, _ = traced
        capsys.readouterr()
        assert main(["analyze", str(jsonl_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["runs"]) == 2
        for run in report["runs"]:
            assert run["attribution"]["max_residual"] <= 1e-6

    def test_analyze_chrome_input(self, capsys, traced):
        """The Chrome file is an export only: one error line naming the
        JSONL archive beside it."""
        jsonl_path, chrome_path = traced
        capsys.readouterr()
        assert main(["analyze", str(chrome_path)]) == 1
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert out == "" and line.startswith(f"error: {chrome_path}: ")
        assert line.endswith(str(jsonl_path))

    def test_analyze_run_selector(self, capsys, traced):
        import json

        jsonl_path, _ = traced
        capsys.readouterr()
        assert main(["analyze", str(jsonl_path), "--run", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["runs"]) == 1

    def test_analyze_promtext_output(self, capsys, traced, tmp_path):
        jsonl_path, _ = traced
        prom = tmp_path / "metrics.prom"
        assert main([
            "analyze", str(jsonl_path), "--promtext", str(prom),
        ]) == 0
        assert prom.exists()
        assert "repro_run_span_seconds" in prom.read_text()

    def test_analyze_missing_file_fails(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_analyze_corrupt_jsonl_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "run", "run": 0}\nnot json\n')
        assert main(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.jsonl:2" in err


class TestCompareCommand:
    def test_compare_table(self, capsys, traced):
        jsonl_path, _ = traced
        capsys.readouterr()
        assert main([
            "compare", str(jsonl_path), str(jsonl_path),
            "--run-a", "0", "--run-b", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "candidate" in out
        assert "Per-phase simulated time" in out
        assert "time-to-accuracy" in out

    def test_compare_json_reports_tta_delta(self, capsys, traced):
        import json

        jsonl_path, _ = traced
        capsys.readouterr()
        assert main([
            "compare", str(jsonl_path), str(jsonl_path),
            "--run-a", "0", "--run-b", "1", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["baseline"] != report["candidate"]
        assert report["phases"]
        # Adaptive vs one of the baselines must yield a measurable
        # time-to-accuracy difference (the acceptance criterion).
        assert report["tta_delta_s"] is not None
        assert report["tta_delta_s"] != 0.0

    def test_compare_same_run_is_neutral(self, capsys, traced):
        import json

        jsonl_path, _ = traced
        capsys.readouterr()
        assert main([
            "compare", str(jsonl_path), str(jsonl_path), "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["wall_speedup"] == pytest.approx(1.0)
        assert report["regressions"] == []

    @pytest.mark.parametrize("knob", [
        ["--noise", "nan"], ["--noise", "-2"], ["--target", "nan"],
    ], ids=lambda knob: "".join(knob).strip("-"))
    def test_bad_noise_or_target_is_an_error_line(self, capsys, traced, knob):
        jsonl_path, _ = traced
        capsys.readouterr()
        assert main([
            "compare", str(jsonl_path), str(jsonl_path), "--json", *knob,
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {knob[0][2:]} must be ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_compare_missing_file_fails(self, capsys, traced, tmp_path):
        jsonl_path, _ = traced
        assert main([
            "compare", str(jsonl_path), str(tmp_path / "nope.jsonl"),
        ]) == 1
        assert "error" in capsys.readouterr().err


class TestTimeBudgetFlag:
    def test_canonical_flag_does_not_warn(self):
        import warnings

        parser = build_parser()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            args = parser.parse_args(
                ["train", "--time-budget-s", "0.1", "--dataset", "micro"]
            )
        assert args.time_budget_s == 0.1

    def test_removed_budget_spelling_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["train", "--budget", "0.1", "--dataset", "micro"]
            )
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


class TestServingCommands:
    def test_snapshot_command(self, capsys, tmp_path):
        stem = tmp_path / "model"
        assert main([
            "snapshot", str(stem), "--dataset", "micro",
            "--time-budget-s", "0.02", "--gpus", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out
        assert (tmp_path / "model.snapshot.json").exists()
        assert (tmp_path / "model.snapshot.npz").exists()

    def test_train_snapshot_then_serve_same_session(self, capsys, tmp_path):
        """The acceptance loop: a `repro train --snapshot` model must be
        servable by `repro serve` in the same CLI session."""
        stem = tmp_path / "loop"
        assert main([
            "train", "--dataset", "micro", "--time-budget-s", "0.02",
            "--gpus", "2", "--snapshot", str(stem),
        ]) == 0
        assert "snapshot:" in capsys.readouterr().out
        assert main([
            "serve", str(stem), "--requests", "150", "--mode", "both",
        ]) == 0
        out = capsys.readouterr().out
        assert "-- sequential --" in out and "-- adaptive --" in out
        assert "p99 latency (ms)" in out
        assert "adaptive/sequential throughput" in out

    def test_serve_single_mode_with_lsh(self, capsys, tmp_path):
        stem = tmp_path / "model"
        assert main([
            "snapshot", str(stem), "--dataset", "micro",
            "--time-budget-s", "0.02", "--gpus", "2",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", str(stem), "--requests", "100", "--mode", "adaptive",
            "--scoring", "lsh",
        ]) == 0
        out = capsys.readouterr().out
        assert "-- adaptive --" in out and "-- sequential --" not in out
        assert "LSH recall@5 vs exact:" in out

    def test_serve_removed_lsh_flag_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["serve", str(tmp_path / "model"), "--lsh"])
        assert exc.value.code == 2
        assert "--lsh" in capsys.readouterr().err

    def test_serve_auto_mode_reports_scoring_split(self, capsys, tmp_path):
        stem = tmp_path / "model"
        assert main([
            "snapshot", str(stem), "--dataset", "micro",
            "--time-budget-s", "0.02", "--gpus", "2",
        ]) == 0
        capsys.readouterr()
        out_stem = tmp_path / "srv"
        assert main([
            "serve", str(stem), "--requests", "100", "--mode", "auto",
            "--out", str(out_stem),
        ]) == 0
        out = capsys.readouterr().out
        # `--mode auto` is sugar for adaptive batching + auto scoring.
        assert "-- adaptive --" in out and "-- sequential --" not in out
        assert "scoring split (batches)" in out
        # micro's label space is tiny: the crossover must route to exact.
        assert "exact=" in out
        assert "LSH recall@5 vs exact:" in out
        # `repro analyze` prints the split its --json carries.
        import json

        jsonl = str(tmp_path / "srv.telemetry.jsonl")
        assert main(["analyze", jsonl, "--json"]) == 0
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        exact = run["serving_scoring"]["paths"]["exact"]
        assert exact["samples"] == 100
        assert main(["analyze", jsonl]) == 0
        text = capsys.readouterr().out
        assert "Scoring split" in text
        assert (
            f"  exact: {exact['batches']} batches, 100 samples, "
            f"{exact['sim_s'] * 1e3:.4g} sim ms"
        ) in text

    def test_serve_exports_analyzable_telemetry(self, capsys, tmp_path):
        stem = tmp_path / "model"
        assert main([
            "snapshot", str(stem), "--dataset", "micro",
            "--time-budget-s", "0.02", "--gpus", "2",
        ]) == 0
        capsys.readouterr()
        out_stem = tmp_path / "srv"
        assert main([
            "serve", str(stem), "--requests", "100", "--out", str(out_stem),
        ]) == 0
        capsys.readouterr()
        jsonl = tmp_path / "srv.telemetry.jsonl"
        assert jsonl.exists()
        assert main(["analyze", str(jsonl), "--json"]) == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert len(report["runs"]) == 2  # sequential + adaptive
        for run in report["runs"]:
            assert run["attribution"]["max_residual"] <= 1e-6

    def test_serve_missing_snapshot_fails(self, capsys, tmp_path):
        assert main(["serve", str(tmp_path / "ghost")]) == 1
        assert "error" in capsys.readouterr().err

    def test_train_publishes_into_store(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert main([
            "train", "--dataset", "micro", "--time-budget-s", "0.03",
            "--gpus", "2", "--store", str(store_dir),
            "--publish-every-s", "0.008",
        ]) == 0
        out = capsys.readouterr().out
        assert "store:" in out and "v1" in out and "v2" in out
        from repro.serve import SnapshotStore

        store = SnapshotStore(store_dir, create=False)
        assert len(store.versions()) >= 2
        assert store.entries[0].published_s == 0.0
        assert store.entries[-1].published_s > 0.0

    def test_train_store_without_schedule_publishes_once(self, capsys,
                                                         tmp_path):
        store_dir = tmp_path / "store"
        assert main([
            "train", "--dataset", "micro", "--time-budget-s", "0.02",
            "--gpus", "2", "--store", str(store_dir),
        ]) == 0
        assert "store:" in capsys.readouterr().out
        from repro.serve import SnapshotStore

        assert SnapshotStore(store_dir, create=False).versions() == [1]

    def test_publish_schedule_requires_store(self, capsys):
        assert main([
            "train", "--dataset", "micro", "--time-budget-s", "0.02",
            "--publish-every-s", "0.01",
        ]) == 1
        assert "--store" in capsys.readouterr().err

    def test_serve_from_store_hot_swaps(self, capsys, tmp_path):
        """The continuous-learning loop: train publishes a version
        schedule, serve replays it and reports the swap accounting."""
        store_dir = tmp_path / "store"
        assert main([
            "train", "--dataset", "micro", "--time-budget-s", "0.03",
            "--gpus", "2", "--store", str(store_dir),
            "--publish-every-s", "0.008",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", str(store_dir), "--requests", "200",
            "--mode", "adaptive",
        ]) == 0
        out = capsys.readouterr().out
        import re

        m = re.search(r"hot swaps\s*:\s*(\d+) committed, (\d+) rolled back, "
                      r"(\d+) failed", out)
        assert m, out
        assert int(m.group(1)) >= 1  # at least one version landed mid-serve
        assert "versions served" in out
        assert re.search(r"mis-versioned\s*:\s*0", out), out

    def test_serve_empty_store_fails(self, capsys, tmp_path):
        from repro.serve import SnapshotStore

        SnapshotStore(tmp_path / "empty")
        assert main(["serve", str(tmp_path / "empty")]) == 1
        assert "empty" in capsys.readouterr().err

    def test_serve_max_queue_depth_reports_shed(self, capsys, tmp_path):
        stem = tmp_path / "model"
        assert main([
            "snapshot", str(stem), "--dataset", "micro",
            "--time-budget-s", "0.02", "--gpus", "2",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", str(stem), "--requests", "150", "--mode", "sequential",
            "--max-queue-depth", "4",
        ]) == 0
        assert "shed requests" in capsys.readouterr().out

    def test_serve_dataset_feature_mismatch_fails(self, capsys, tmp_path):
        stem = tmp_path / "model"
        assert main([
            "snapshot", str(stem), "--dataset", "micro",
            "--time-budget-s", "0.02", "--gpus", "2",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", str(stem), "--dataset", "amazon670k-tiny",
            "--requests", "10",
        ]) == 1
        assert "features" in capsys.readouterr().err

    def test_serve_k_outside_the_model_fails(self, capsys, tmp_path):
        stem = tmp_path / "model"
        assert main([
            "snapshot", str(stem), "--dataset", "micro",
            "--time-budget-s", "0.02", "--gpus", "2",
        ]) == 0
        capsys.readouterr()
        for k in ("0", "100000"):
            assert main([
                "serve", str(stem), "--k", k, "--requests", "10",
            ]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: k must be in [1, ")
            assert captured.err.count("\n") == 1


@pytest.fixture(scope="module")
def served_model(tmp_path_factory):
    """The smoke snapshot ``tests/data/golden/serve_tenants.txt`` was
    served from."""
    stem = tmp_path_factory.mktemp("served") / "M"
    assert main([
        "snapshot", str(stem), "--dataset", "micro",
        "--time-budget-s", "0.02", "--gpus", "2",
    ]) == 0
    return stem


def serve(capsys, *argv):
    """``(stdout, stderr)`` of one ``repro serve`` that exits 0."""
    capsys.readouterr()
    assert main(["serve", *map(str, argv)]) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def kv_rows(text):
    """``key -> value`` text of every ``key : value`` row of ``text``."""
    return dict(
        (key.strip(), value.strip())
        for key, value in (
            line.split(" : ") for line in text.splitlines() if " : " in line
        )
    )


class TestServeJson:
    """``serve --json`` is one sorted JSON object holding every number the
    text prints; without the flag stdout is what it was."""

    TENANTS = ["--tenants", "--requests", "200", "--seed", "1"]

    def test_tenants_text_is_the_golden(self, served_model, capsys,
                                        monkeypatch):
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        out, _ = serve(capsys, served_model, *self.TENANTS)
        assert out == (DATA / "golden" / "serve_tenants.txt").read_text()

    def test_tenants_numbers_are_the_texts(self, served_model, capsys):
        from repro.utils.tables import format_kv

        text, _ = serve(capsys, served_model, *self.TENANTS)
        out, _ = serve(capsys, served_model, *self.TENANTS, "--json")
        view = json.loads(out)
        assert out == json.dumps(view, indent=2, sort_keys=True) + "\n"
        solo, contended = view["solo"], view["contended"]
        expected = {
            "victim rate (rps)": round(view["victim_rps"], 1),
            "aggressor rate (rps)": round(view["aggressor_rps"], 1),
            "aggressor factor (x fair share)": view["aggressor_factor"],
            "victim p99 solo (ms)": round(
                solo["tenants"]["victim"]["latency_p99_ms"], 4),
            "victim p99 contended (ms)": round(
                contended["tenants"]["victim"]["latency_p99_ms"], 4),
            "isolation ratio": round(view["isolation_ratio"], 3),
            "fairness (max/min throughput)": round(view["fairness"], 3),
            "max queue depth": contended["max_queue_depth"],
        }
        for name, row in contended["tenants"].items():
            expected.update({
                f"{name} completed": row["completed"],
                f"{name} throughput (rps)": round(row["throughput_rps"], 1),
                f"{name} p50 (ms)": round(row["latency_p50_ms"], 4),
                f"{name} p99 (ms)": round(row["latency_p99_ms"], 4),
                f"{name} shed": row["n_shed"],
            })
        assert kv_rows(text) == kv_rows(format_kv(expected))
        assert view["fairness"] == contended["fairness"]

    @pytest.mark.parametrize("argv", [
        ["--mode", "both", "--scoring", "lsh", "--max-queue-depth", "64"],
        ["--mode", "auto", "--churn", "spot-churn", "--autoscale"],
    ], ids=["both-lsh-shed", "auto-churn"])
    def test_replay_numbers_are_the_texts(self, served_model, capsys, argv):
        from repro.utils.tables import format_kv

        argv = [served_model, "--requests", "400", *argv]
        text, _ = serve(capsys, *argv)
        view = json.loads(serve(capsys, *argv, "--json")[0])
        blocks = {block.split(" --")[0]: block
                  for block in text.split("-- ")[1:]}
        assert sorted(blocks) == list(view["modes"])
        for name, block in blocks.items():
            mode = view["modes"][name]
            expected = {
                "requests": mode["n_requests"],
                "offered load (rps)": round(mode["offered_rps"], 1),
                "throughput (rps)": round(mode["throughput_rps"], 1),
                "p50 latency (ms)": round(mode["latency_p50_ms"], 4),
                "p95 latency (ms)": round(mode["latency_p95_ms"], 4),
                "p99 latency (ms)": round(mode["latency_p99_ms"], 4),
                "mean batch size": round(mode["mean_batch_size"], 2),
                "max queue depth": mode["max_queue_depth"],
                "scoring": mode["scoring"],
            }
            if mode["scoring"] == "auto":
                expected["scoring split (batches)"] = " ".join(
                    f"{path}={n}"
                    for path, n in sorted(mode["scoring_batches"].items()))
            if "mean_candidate_fraction" in mode:
                expected["mean candidate fraction"] = round(
                    mode["mean_candidate_fraction"], 4)
            if "--max-queue-depth" in argv:
                expected["shed requests"] = mode["n_shed"]
            if "membership" in mode:
                m = mode["membership"]
                expected["membership events"] = m["n_events"]
                expected["final devices"] = m["final_devices"]
                expected["autoscale admits/retires"] = (
                    f"{m['n_autoscale_admits']}/{m['n_autoscale_retires']}")
            assert kv_rows(block) == kv_rows(format_kv(expected))
        closing = [line for line in text.splitlines()[-2:]
                   if " : " not in line]
        expected = []
        if "adaptive_vs_sequential_throughput" in view:
            expected.append(f"adaptive/sequential throughput: "
                            f"{view['adaptive_vs_sequential_throughput']:.2f}x")
        expected.append(f"LSH recall@5 vs exact: "
                        f"{view['lsh_recall_at_k']:.3f}")
        assert closing == expected

    def test_a_store_run_without_a_swap_keeps_its_swap_rows(self, capsys,
                                                            tmp_path):
        store = tmp_path / "S"
        assert main(["train", "--dataset", "micro", "--time-budget-s", "0.02",
                     "--gpus", "2", "--store", str(store)]) == 0
        argv = [store, "--mode", "adaptive", "--requests", "200"]
        rows = kv_rows(serve(capsys, *argv)[0])
        mode = json.loads(serve(capsys, *argv, "--json")[0])["modes"][
            "adaptive"]
        assert mode["swaps"] == [] and rows["hot swaps"] == (
            f"{mode['n_swaps']} committed, {mode['n_rollbacks']} rolled "
            f"back, {mode['n_swap_failures']} failed")
        assert rows["versions served"] == " ".join(
            f"v{v}={n}" for v, n in mode["versions_served"].items())
        assert rows["mis-versioned"] == str(mode["mis_versioned"])

    SWAP_KEYS = {"swaps", "n_swaps", "n_rollbacks", "n_swap_failures",
                 "versions_served", "mis_versioned", "active_version"}

    @pytest.mark.parametrize("from_store", [False, True],
                             ids=["shedding", "one-version-store"])
    def test_swap_rows_come_with_a_store_not_with_shedding(
        self, served_model, capsys, tmp_path, from_store
    ):
        """A run that sheds without a store has no hot-swap keys; a store
        of one version has them all, in the API and in ``--json``."""
        from repro.api import make_engine
        from repro.data.registry import load_task
        from repro.serve import (
            LoadSpec, ModelSnapshot, SnapshotStore, generate_arrivals,
        )

        source = served_model
        if from_store:
            source = tmp_path / "S"
            SnapshotStore(source).publish(ModelSnapshot.load(served_model))
        argv = [source, "--mode", "adaptive", "--requests", "400",
                "--max-queue-depth", "4"]
        mode = json.loads(serve(capsys, *argv, "--json")[0])["modes"][
            "adaptive"]
        arrivals = generate_arrivals(
            LoadSpec(n_requests=400, rate_rps=1e6, seed=0))
        result = make_engine(source, mode="adaptive", max_queue_depth=4).serve(
            load_task("micro", seed=0).test.X, arrivals, k=5)
        for view in (mode, result.as_dict()):
            assert view["n_shed"] > 0
            assert self.SWAP_KEYS & set(view) == (
                self.SWAP_KEYS if from_store else set())

    def test_notes_go_to_stderr_so_stdout_parses(self, served_model, capsys,
                                                  tmp_path):
        argv = [served_model, "--requests", "100", "--mode", "adaptive",
                "--out", tmp_path / "S", "--registry", tmp_path / "R"]
        text, err = serve(capsys, *argv)
        assert err == ""
        out, err = serve(capsys, *argv, "--json")
        assert json.loads(out)["modes"]["adaptive"]["n_requests"] == 100
        notes = err.splitlines()
        assert [line.split(":")[0] for line in notes] \
            == ["chrome trace", "event stream", "registered"]
        assert text.splitlines()[-3:-1] == notes[:2]


class TestErrorHandling:
    """``main`` turns every ``ReproError`` into one ``error:`` line."""

    @pytest.mark.parametrize("argv", [
        ["train", "--dataset", "micro"],
        ["trace", "--dataset", "micro"],
        ["snapshot", "STEM", "--dataset", "micro"],
        ["fig4", "--dataset", "micro"],
    ], ids=lambda argv: argv[0])
    def test_zero_gpus_is_an_error_line_not_a_traceback(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--gpus", "0", "--time-budget-s", "0.01"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: gpu_counts must be positive, got (0,)\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["train", "--dataset", "micro", "--time-budget-s", "inf"],
         "time_budget_s must be finite and > 0, got inf"),
        (["trace", "--dataset", "micro", "--time-budget-s", "inf"],
         "time_budget_s must be finite and > 0, got inf"),
        (["fig6", "--dataset", "micro", "--time-budget-s", "inf"],
         "time_budget_s must be finite and > 0, got inf"),
        (["serve", "M", "--rate", "nan", "--requests", "10"],
         "rate_rps must be finite and > 0, got nan"),
        (["serve", "M", "--tenants", "--aggressor-factor", "nan"],
         "--aggressor-factor must be finite and > 0, got nan"),
        (["serve", "M", "--slo-ms", "inf", "--requests", "10"],
         "--slo-ms must be finite and > 0, got inf"),
        (["serve", "M", "--tenants", "--slo-ms", "inf", "--requests", "10"],
         "--slo-ms must be finite and > 0, got inf"),
    ], ids=["train-inf", "trace-inf", "fig6-inf", "rate-nan", "aggressor-nan",
            "slo-inf", "tenants-slo-inf"])
    def test_non_finite_budget_or_rate_is_rejected_before_any_simulation(
        self, argv, message, tmp_path
    ):
        """In a child process with a timeout: an ``inf`` budget that slipped
        through would simulate forever, and must fail the test instead.
        An infinite ``--slo-ms`` used to crash a worker mid-run. Only
        ``--aggressor-factor`` is an argument-only check, so its snapshot
        need not exist."""
        if "--aggressor-factor" not in argv and argv[0] == "serve":
            assert main([
                "snapshot", str(tmp_path / "M"), "--dataset", "micro",
                "--time-budget-s", "0.01", "--gpus", "2",
            ]) == 0
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=tmp_path,
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert done.returncode == 1
        assert done.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["0", "-5", "inf", "nan"])
    def test_slo_ms_is_checked_in_the_flag_s_units(
        self, value, capsys, tmp_path
    ):
        """The flag and the milliseconds typed, not the internal field in
        seconds; checked before the (missing) snapshot is read."""
        argv = ["serve", str(tmp_path / "ghost"), "--slo-ms", value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --slo-ms must be finite and > 0, got {value}\n"
        )
        assert captured.out == ""

    def test_argument_checks_run_before_any_io(self, capsys, tmp_path):
        """A flag conflict is reported even when the snapshot is missing and
        the cluster invalid — nothing was loaded or built first."""
        ghost = str(tmp_path / "ghost")
        assert main(["serve", ghost, "--tenants", "--churn", "spot-churn"]) == 1
        assert "--tenants" in capsys.readouterr().err
        assert main(["serve", ghost, "--tenants", "--autoscale"]) == 1
        assert "--tenants" in capsys.readouterr().err
        assert main([
            "train", "--dataset", "micro", "--gpus", "0",
            "--publish-every-s", "0.01",
        ]) == 1
        assert "--store" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact", [
        "M.snapshot.json", "S/store.json", "T.json", "T.npz",
    ])
    def test_truncated_artifact_is_a_typed_error_naming_the_file(
        self, artifact, capsys, tmp_path
    ):
        """Every whole-file reader reports a cut file as a ``ReproError``
        that starts with its path: the snapshot and the store through
        ``repro serve``, the trace pair (which no command reads) through
        ``load_trace``."""
        from repro.exceptions import DataFormatError
        from repro.harness.store import load_trace

        assert main([
            "train", "--dataset", "micro", "--time-budget-s", "0.02",
            "--gpus", "2", "--save", str(tmp_path / "T"),
            "--snapshot", str(tmp_path / "M"), "--store", str(tmp_path / "S"),
        ]) == 0
        capsys.readouterr()
        path = tmp_path / artifact
        path.write_bytes(path.read_bytes()[:120])
        if artifact.startswith("T"):
            with pytest.raises(DataFormatError, match=f"^{path}: "):
                load_trace(tmp_path / "T")
            return
        assert main(["serve", str(tmp_path / artifact[0])]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_narrow_timeline_width_is_an_error_line_not_a_traceback(
        self, capsys, traced
    ):
        jsonl_path, _ = traced
        capsys.readouterr()
        assert main(["analyze", str(jsonl_path), "--width", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: timeline width must be >= 8, got 2\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["runs", "ls", "--limit", "-5"], "--limit must be >= 0, got -5"),
        (["runs", "history", "duration_s", "--limit", "-3"],
         "--limit must be >= 0, got -3"),
        (["runs", "history", "duration_s", "--width", "0"],
         "--width must be >= 1, got 0"),
    ], ids=["ls-limit", "history-limit", "history-width"])
    def test_negative_limit_or_width_is_rejected_before_the_registry(
        self, argv, message, capsys, tmp_path
    ):
        """The registry named does not exist: had it been opened first, the
        error would name it instead."""
        registry = ["--registry", str(tmp_path / "none")]
        assert main([*argv, *registry]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["datasets"],  # under one stdout buffer: fails at the flush
        ["analyze", "tests/data/micro_pair.telemetry.jsonl",
         "--width", "1000"],  # 11 kB of text: fails inside print
    ], ids=["flush", "print"])
    def test_a_closed_stdout_pipe_exits_nonzero_without_a_traceback(
        self, argv
    ):
        """``repro ... | head``: the reader is gone before the output is."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv], cwd=ROOT,
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            )
        finally:
            os.close(write_end)
        assert done.returncode != 0
        assert done.stderr == b""


def _subparser(parser, path):
    """The parser ``build_parser`` registers for a command path."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            child = action.choices[path[0]]
            return _subparser(child, path[1:]) if path[1:] else child
    raise KeyError(path)


def _surface_paths():
    surface = json.loads((DATA / "cli_surface.json").read_text())
    return [command.split() for command in surface["commands"]]


def _required_values(path):
    """A placeholder per required positional of ``path``."""
    return [
        "x" for action in _subparser(build_parser(), path)._actions
        if not action.option_strings
        and not isinstance(action, argparse._SubParsersAction)
    ]


class TestCommandParser:
    """``main`` parses with a parser of the one command it runs; every
    help, usage and error text must be the full parser's."""

    def outcome(self, parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("path", _surface_paths(), ids=" ".join)
    def test_help_and_errors_match_the_full_parser(self, path, capsys):
        values = _required_values(path)
        cases = [
            [*path, "--help"],
            [*path, *values, "--bogus-flag"],  # the top level's error
        ]
        if values or path == ["runs"]:
            cases.append(path)  # a missing positional
        else:
            takes_value = [
                a.option_strings[0]
                for a in _subparser(build_parser(), path)._actions
                if a.option_strings and a.nargs != 0
            ]
            if takes_value:
                cases.append([*path, takes_value[0]])  # a missing value
        for argv in cases:
            want = self.outcome(build_parser().parse_args, argv, capsys)
            assert self.outcome(main, argv, capsys) == want, argv
            assert want[0] != 0 or want[1], argv  # it did print or fail

    @pytest.mark.parametrize(
        "path", [p for p in _surface_paths() if p != ["runs"]], ids=" ".join,
    )
    def test_main_registers_only_the_command_it_runs(
        self, path, monkeypatch
    ):
        import repro.cli as cli

        argv = [*path, *_required_values(path)]

        def registrar_of_another_command(parser):
            raise AssertionError(f"registered {parser.prog}")

        for table, name in (
            (cli.COMMANDS, path[0]), (cli.RUNS_VERBS, path[-1]),
        ):
            for other, (help_text, _, handler) in list(table.items()):
                if other != name:
                    monkeypatch.setitem(table, other, (
                        help_text, registrar_of_another_command, handler,
                    ))
        seen = []
        help_text, add_arguments, _ = cli.COMMANDS[path[0]]
        monkeypatch.setitem(cli.COMMANDS, path[0], (
            help_text, add_arguments, lambda args: seen.append(args) or 0,
        ))
        assert main(argv) == 0
        (args,) = seen
        assert args.command == path[0]
        assert getattr(args, "runs_command", path[-1]) == path[-1]
