"""Tests for repro.serve.engine — the sim-clock serving loop."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from repro.serve import (
    LoadSpec,
    ModelSnapshot,
    Predictor,
    ServingEngine,
    generate_arrivals,
    sample_query_rows,
)
from repro.serve.run import pick_scoring
from repro.sparse.mlp import MLPArchitecture, SparseMLP


@pytest.fixture(scope="module")
def predictor(micro_task):
    arch = MLPArchitecture(
        micro_task.n_features, micro_task.n_labels, hidden=(32,)
    )
    state = SparseMLP(arch).init_state(seed=21)
    snapshot = ModelSnapshot(arch=arch, state=state, meta={"dataset": "micro"})
    return Predictor(snapshot)


def serve_server(n_gpus=2, seed=0):
    return make_server(
        n_gpus, cost_params=GpuCostParams.tiny_model_profile(), seed=seed
    )


def saturating_arrivals(predictor, X, n_requests, *, seed=0, factor=10.0):
    """Arrivals well past the cluster's sequential capacity."""
    work = predictor.workload(X[:1])
    per_request = serve_server().gpus[0].cost_model.inference_time(
        work, n_active_gpus=2
    )
    rate = factor * 2 / per_request
    spec = LoadSpec(n_requests=n_requests, rate_rps=rate, seed=seed)
    return generate_arrivals(spec)


class TestSequentialMode:
    def test_all_requests_complete(self, predictor, micro_task):
        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 120)
        engine = ServingEngine(predictor, serve_server(), mode="sequential")
        result = engine.serve(X, arrivals, k=5)
        assert result.mode == "sequential"
        assert len(result.requests) == 120
        assert all(r.t_done is not None for r in result.requests)
        assert sum(result.per_device.values()) == 120
        assert result.report.mean_batch_size == 1.0
        assert np.all(result.report.latencies_s > 0)

    def test_responses_carry_topk(self, predictor, micro_task):
        X = micro_task.test.X
        rows = sample_query_rows(X.shape[0], 40, seed=1)
        arrivals = saturating_arrivals(predictor, X, 40)
        engine = ServingEngine(predictor, serve_server(), mode="sequential")
        result = engine.serve(X, arrivals, k=3, row_indices=rows)
        exact = predictor.topk(X[rows], 3)
        for i, request in enumerate(result.requests):
            assert request.labels == exact[i].tolist()


class TestAdaptiveMode:
    def test_coalesces_under_load(self, predictor, micro_task):
        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 200)
        engine = ServingEngine(predictor, serve_server(), mode="adaptive")
        result = engine.serve(X, arrivals, k=5)
        assert all(r.t_done is not None for r in result.requests)
        assert result.report.mean_batch_size > 1.5
        assert result.max_queue_depth >= 1

    def test_beats_sequential_throughput_at_saturation(
        self, predictor, micro_task
    ):
        """The headline property: micro-batching amortizes the fixed
        per-dispatch overhead that rate-limits sequential serving."""
        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 300)
        results = {}
        for mode in ("sequential", "adaptive"):
            engine = ServingEngine(predictor, serve_server(), mode=mode)
            results[mode] = engine.serve(X, arrivals, k=5)
        assert (
            results["adaptive"].report.throughput_rps
            > 2.0 * results["sequential"].report.throughput_rps
        )

    def test_deterministic(self, predictor, micro_task):
        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 80)
        runs = []
        for _ in range(2):
            engine = ServingEngine(predictor, serve_server(), mode="adaptive")
            runs.append(engine.serve(X, arrivals, k=5))
        assert np.array_equal(
            runs[0].report.latencies_s, runs[1].report.latencies_s
        )
        assert runs[0].report.batch_sizes == runs[1].report.batch_sizes

    def test_uses_every_device(self, predictor, micro_task):
        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 200)
        engine = ServingEngine(predictor, serve_server(4), mode="adaptive")
        result = engine.serve(X, arrivals, k=5)
        assert len(result.per_device) == 4
        assert all(n > 0 for n in result.per_device.values())

    def test_lsh_serving(self, predictor, micro_task):
        X = micro_task.test.X
        rows = sample_query_rows(X.shape[0], 60, seed=3)
        arrivals = saturating_arrivals(predictor, X, 60)
        engine = ServingEngine(
            predictor, serve_server(), mode="adaptive", scoring="lsh"
        )
        result = engine.serve(X, arrivals, k=5, row_indices=rows)
        approx = predictor.topk_lsh(X[rows], 5)
        served = {r.req_id: r.labels for r in result.requests}
        for i in range(60):
            assert served[i] == approx[i].tolist()


class TestScoringPolicy:
    def test_lsh_result_fields(self, predictor, micro_task):
        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 50)
        engine = ServingEngine(
            predictor, serve_server(), mode="adaptive", scoring="lsh"
        )
        result = engine.serve(X, arrivals, k=5)
        assert result.scoring == "lsh"
        assert set(result.scoring_batches) == {"lsh"}
        assert sum(result.scoring_batches.values()) == len(
            result.report.batch_sizes
        )
        assert 0.0 < result.mean_candidate_fraction <= 1.0
        as_dict = result.as_dict()
        assert as_dict["scoring"] == "lsh"
        assert "mean_candidate_fraction" in as_dict

    def test_auto_picks_exact_at_small_label_count(
        self, predictor, micro_task
    ):
        """At L=64 the candidate fraction is ~0.75 — the cost model must
        route every batch to the exact path (the small-L crossover side)."""
        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 50)
        engine = ServingEngine(
            predictor, serve_server(), mode="adaptive", scoring="auto"
        )
        result = engine.serve(X, arrivals, k=5)
        assert result.scoring == "auto"
        assert set(result.scoring_batches) == {"exact"}
        # Calibration seeded the crossover signal even though no LSH batch
        # ran — that's what made the exact choice informed, not default.
        assert predictor.observed_candidate_fraction() is not None

    def test_auto_matches_exact_labels_when_it_chooses_exact(
        self, predictor, micro_task
    ):
        X = micro_task.test.X
        rows = sample_query_rows(X.shape[0], 40, seed=4)
        arrivals = saturating_arrivals(predictor, X, 40)
        engine = ServingEngine(
            predictor, serve_server(), mode="adaptive", scoring="auto"
        )
        result = engine.serve(X, arrivals, k=5, row_indices=rows)
        exact = predictor.topk(X[rows], 5)
        served = {r.req_id: r.labels for r in result.requests}
        for i in range(40):
            assert served[i] == exact[i].tolist()

    def test_use_lsh_option_rejected(self, predictor):
        with pytest.raises(ConfigurationError, match="unknown option"):
            ServingEngine(predictor, serve_server(), use_lsh=True)
        engine = ServingEngine(predictor, serve_server(), scoring="lsh")
        assert engine.use_lsh is True  # still recorded in run metadata

    def test_bad_scoring_rejected(self, predictor):
        with pytest.raises(ConfigurationError, match="scoring"):
            ServingEngine(predictor, serve_server(), scoring="psychic")

    def test_batch_spans_record_scoring(self, predictor, micro_task):
        from repro.telemetry import Telemetry
        from repro.telemetry.analyze import scoring_split
        from repro.telemetry.events import SPAN_SERVE_BATCH
        from repro.telemetry.trace_data import TraceData

        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 60)
        tel = Telemetry(label="scoring-split")
        engine = ServingEngine(
            predictor, serve_server(), mode="adaptive", scoring="lsh",
            telemetry=tel,
        )
        result = engine.serve(X, arrivals, k=5)
        spans = [s for s in tel.spans if s.name == SPAN_SERVE_BATCH]
        assert all(s.args["scoring"] == "lsh" for s in spans)
        assert all(0.0 < s.args["candidate_fraction"] <= 1.0 for s in spans)
        split = scoring_split(TraceData.from_telemetry(tel).run(0))
        assert set(split["paths"]) == {"lsh"}
        assert split["paths"]["lsh"]["batches"] == len(spans)
        assert split["paths"]["lsh"]["samples"] == 60
        assert split["mean_candidate_fraction"] == pytest.approx(
            result.mean_candidate_fraction
        )


class TestPickScoring:
    def test_price_tie_goes_to_exact(self):
        assert pick_scoring(1e-3, 1e-3) == ("exact", 1e-3)
        assert pick_scoring(2e-3, 1e-3) == ("lsh", 1e-3)

    def test_a_path_the_policy_forbids_is_never_picked(self):
        assert pick_scoring(None, 5.0) == ("lsh", 5.0)
        assert pick_scoring(5.0, None) == ("exact", 5.0)


class TestValidation:
    def test_bad_mode(self, predictor):
        with pytest.raises(ConfigurationError):
            ServingEngine(predictor, serve_server(), mode="warp")

    def test_empty_arrivals(self, predictor, micro_task):
        engine = ServingEngine(predictor, serve_server())
        with pytest.raises(ConfigurationError):
            engine.serve(micro_task.test.X, np.array([]))

    def test_decreasing_arrivals(self, predictor, micro_task):
        engine = ServingEngine(predictor, serve_server())
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            engine.serve(micro_task.test.X, np.array([0.2, 0.1]))

    def test_row_indices_length_mismatch(self, predictor, micro_task):
        engine = ServingEngine(predictor, serve_server())
        with pytest.raises(ConfigurationError):
            engine.serve(
                micro_task.test.X, np.array([0.0, 1.0]),
                row_indices=np.array([0]),
            )

    def test_row_index_out_of_bounds(self, predictor, micro_task):
        engine = ServingEngine(predictor, serve_server())
        with pytest.raises(ConfigurationError, match="row index"):
            engine.serve(
                micro_task.test.X, np.array([0.0]),
                row_indices=np.array([micro_task.test.X.shape[0]]),
            )


class TestTelemetry:
    def test_spans_and_attribution(self, predictor, micro_task):
        from repro.telemetry import Telemetry
        from repro.telemetry.analyze import analyze_report
        from repro.telemetry.events import SPAN_SERVE_BATCH, SPAN_SERVE_REQUEST

        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 100)
        tel = Telemetry(label="serve-test")
        engine = ServingEngine(
            predictor, serve_server(), mode="adaptive", telemetry=tel
        )
        result = engine.serve(X, arrivals, k=5)
        batch_spans = [s for s in tel.spans if s.name == SPAN_SERVE_BATCH]
        request_spans = [s for s in tel.spans if s.name == SPAN_SERVE_REQUEST]
        assert len(batch_spans) == len(result.report.batch_sizes)
        assert len(request_spans) == 100
        # Request spans are driver-level (no device lane) and span the full
        # enqueue -> response interval.
        assert all(s.device is None for s in request_spans)
        assert all(s.dur >= 0 for s in request_spans)
        assert all(s.args["device_id"] is not None for s in request_spans)
        # The analytics engine must digest a serving-only trace with the
        # attribution invariant intact.
        report = analyze_report(tel)
        (run,) = report["runs"]
        assert run["attribution"]["max_residual"] <= 1e-6
        samples = sum(d["samples"] for d in run["attribution"]["devices"])
        assert samples == 100
