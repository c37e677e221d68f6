"""Interop acceptance tests: live recorder vs archived streams, and the
throttled-GPU straggler demo.

The headline guarantee: analyzing a run through the harness store's archived
JSONL yields *byte-identical* JSON to analyzing the live recorder — the
analysis is a pure function of the shared record stream.
"""

import json

import pytest

from repro.api import make_trainer
from repro.gpu.cluster import make_server
from repro.gpu.cost import CpuCostParams, GpuCostParams
from repro.gpu.profiles import ThrottledProfile
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.telemetry.export import write_trace_files
from repro.telemetry import Telemetry, analyze_report, load_trace_data

BUDGET_S = 0.03


@pytest.fixture(scope="module")
def recorded():
    """One tiny heterogeneous adaptive run in a live recorder."""
    tel = Telemetry(label="interop")
    spec = ExperimentSpec(
        dataset="micro", algorithms=("adaptive",), gpu_counts=(2,),
        time_budget_s=BUDGET_S, eval_samples=64,
    )
    traces = run_experiment(spec, telemetry=tel)
    return tel, traces


class TestLiveVsArchived:
    def test_store_archive_analysis_is_byte_identical(self, recorded,
                                                      tmp_path):
        tel, _ = recorded
        write_trace_files(tel, tmp_path, "run.")
        archived = tmp_path / "run.telemetry.jsonl"
        assert archived.exists()

        live_json = json.dumps(analyze_report(tel), sort_keys=True,
                               allow_nan=False)
        stored_json = json.dumps(analyze_report(archived), sort_keys=True,
                                 allow_nan=False)
        assert live_json == stored_json

    def test_chrome_archive_agrees_on_the_verdicts(self, recorded, tmp_path):
        tel, _ = recorded
        write_trace_files(tel, tmp_path, "run.")
        chrome = analyze_report(tmp_path / "run.trace.json")
        live = analyze_report(tel)
        # Microsecond round-tripping loses float exactness, not meaning:
        # same devices, same straggler verdict, same finding detectors.
        for run_chrome, run_live in zip(chrome["runs"], live["runs"]):
            assert run_chrome["straggler"]["straggler"] \
                == run_live["straggler"]["straggler"]
            assert [f["detector"] for f in run_chrome["findings"]] \
                == [f["detector"] for f in run_live["findings"]]
            att_c = run_chrome["attribution"]
            att_l = run_live["attribution"]
            assert att_c["run_span_s"] == pytest.approx(
                att_l["run_span_s"], rel=1e-6
            )

    def test_attribution_invariant_on_real_run(self, recorded):
        tel, _ = recorded
        report = analyze_report(tel)
        for run in report["runs"]:
            assert run["attribution"]["max_residual"] <= 1e-6

    def test_load_trace_data_accepts_result_directory(self, recorded,
                                                      tmp_path):
        tel, _ = recorded
        from repro.telemetry.export import write_jsonl

        outdir = tmp_path / "results"
        write_jsonl(tel, outdir / "telemetry.jsonl")
        data = load_trace_data(outdir)
        assert len(data.runs) == 1


class TestChromeIdleFallback:
    def test_gap_idle_matches_the_idle_records_on_a_serve_run(
        self, micro_task, tmp_path
    ):
        """A Chrome trace carries no ``idle`` records, so ``attribute_time``
        replays the accountant — over ``serve.batch`` spans too, which is
        what a served device's compute is made of."""
        from repro.api import make_engine
        from repro.serve import LoadSpec, ModelSnapshot, generate_arrivals
        from repro.sparse.mlp import MLPArchitecture, SparseMLP
        from repro.telemetry.analyze import attribute_time
        from repro.telemetry.export import write_chrome_trace
        from repro.telemetry.trace_data import TraceData

        arch = MLPArchitecture(
            micro_task.n_features, micro_task.n_labels, hidden=(32,)
        )
        snapshot = ModelSnapshot(
            arch=arch, state=SparseMLP(arch).init_state(seed=7),
            meta={"dataset": "micro"},
        )
        tel = Telemetry(label="serve-idle")
        engine = make_engine(
            snapshot, mode="sequential", n_gpus=2, telemetry=tel
        )
        # Far below capacity: both devices idle between most batches.
        arrivals = generate_arrivals(
            LoadSpec(n_requests=200, rate_rps=200 / 0.02, seed=0)
        )
        engine.serve(micro_task.test.X, arrivals, k=5)

        (recorded,) = TraceData.from_telemetry(tel).runs
        (chrome,) = load_trace_data(
            write_chrome_trace(tel, tmp_path / "idle.trace.json")
        ).runs
        assert recorded.idle and not chrome.idle
        fallback = {d.device: d for d in attribute_time(chrome).devices}
        exact = {d.device: d for d in attribute_time(recorded).devices}
        for device, record in recorded.idle.items():
            assert record["idle_s"] > 0.0
            assert fallback[device].gap_idle_s == pytest.approx(
                record["idle_s"], rel=1e-9
            )
            assert exact[device].gap_idle_s == record["idle_s"]


class TestThrottledStraggler:
    def test_throttled_device_flagged_as_straggler(self):
        """An intentionally throttled GPU must come out of the analysis
        named as the straggler (the EXPERIMENTS.md walkthrough)."""
        server = make_server(
            2, heterogeneity="uniform",
            cost_params=GpuCostParams.tiny_model_profile(),
            cpu_params=CpuCostParams.tiny_model_profile(),
        )
        victim = server.gpus[1]
        victim.profile = ThrottledProfile(
            base_profile=victim.profile, events=[(0.0, 0.4)],
        )
        tel = Telemetry(label="throttled")
        spec = ExperimentSpec(
            dataset="micro", algorithms=("adaptive",), gpu_counts=(2,),
            time_budget_s=BUDGET_S, eval_samples=64,
        )
        trainer = make_trainer(
            "adaptive", spec, server=server, telemetry=tel,
        )
        trainer.run(time_budget_s=BUDGET_S)

        report = analyze_report(tel)
        (run,) = report["runs"]
        straggler = run["straggler"]
        assert straggler["straggler"] == 1
        assert straggler["heterogeneity_index"] > 0.5  # 0.4x speed ≈ 1.5x slower
        assert any(f["detector"] == "straggler" for f in run["findings"])
