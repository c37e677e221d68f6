"""Tests for repro.serve.engine — the sim-clock serving loop."""

import hashlib
import math

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
import repro.serve.queue as queue
from repro.telemetry.events import SHED_REASONS
from repro.serve.run import pick_scoring
from repro.sparse.mlp import MLPArchitecture, SparseMLP
from tests.reference import scipy_csr


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
        assert result.requests.arrival.size == 120
        assert not np.isnan(result.requests.done).any()
        assert sum(result.per_device.values()) == 120
        assert result.mean_batch_size == 1.0
        assert np.all(result.latencies_s > 0)

    def test_responses_carry_topk(self, predictor, micro_task):
        X = micro_task.test.X
        rows = sample_query_rows(X.shape[0], 40, seed=1)
        arrivals = saturating_arrivals(predictor, X, 40)
        engine = ServingEngine(predictor, serve_server(), mode="sequential")
        result = engine.serve(X, arrivals, k=3, row_indices=rows)
        exact = predictor.topk(X[rows], 3)
        assert result.labels.shape == (40, 3)
        assert result.labels.dtype == np.int32
        assert np.array_equal(result.labels, exact)


class TestAdaptiveMode:
    def test_coalesces_under_load(self, predictor, micro_task):
        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 200)
        engine = ServingEngine(predictor, serve_server(), mode="adaptive")
        result = engine.serve(X, arrivals, k=5)
        assert not np.isnan(result.requests.done).any()
        assert result.mean_batch_size > 1.5
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
            results["adaptive"].throughput_rps
            > 2.0 * results["sequential"].throughput_rps
        )

    def test_deterministic(self, predictor, micro_task):
        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 80)
        runs = []
        for _ in range(2):
            engine = ServingEngine(predictor, serve_server(), mode="adaptive")
            runs.append(engine.serve(X, arrivals, k=5))
        assert np.array_equal(
            runs[0].latencies_s, runs[1].latencies_s
        )
        assert runs[0].batch_sizes == runs[1].batch_sizes

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
        assert np.array_equal(result.labels, approx)


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
            result.batch_sizes
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
        assert np.array_equal(result.labels, exact)

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
        from repro.telemetry.trace_data import load_trace_data

        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 60)
        tel = Telemetry(label="scoring-split")
        engine = ServingEngine(
            predictor, serve_server(), mode="adaptive", scoring="lsh",
            telemetry=tel,
        )
        result = engine.serve(X, arrivals, k=5)
        spans = [s for s in tel.runs[0].spans if s.name == SPAN_SERVE_BATCH]
        assert all(s.args["scoring"] == "lsh" for s in spans)
        assert all(0.0 < s.args["candidate_fraction"] <= 1.0 for s in spans)
        split = scoring_split(load_trace_data(tel).run(0))
        assert set(split["paths"]) == {"lsh"}
        assert split["paths"]["lsh"]["batches"] == len(spans)
        assert split["paths"]["lsh"]["samples"] == 60
        assert split["mean_candidate_fraction"] == pytest.approx(
            result.mean_candidate_fraction
        )
        from repro.harness.report import render_analysis

        text = render_analysis(tel)
        assert f"  lsh: {len(spans)} batches, 60 samples, " in text
        assert (
            "  mean candidate fraction: "
            f"{split['mean_candidate_fraction']:.4f}"
        ) in text


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

    @pytest.mark.parametrize("k", [0, -1, "n_labels + 1", 1_000_000])
    def test_k_outside_the_model_rejected_before_the_sim_starts(
        self, predictor, micro_task, monkeypatch, k
    ):
        """``k`` is checked against the model once, as a configuration
        error, before a request exists — not by the scorer of a table."""
        import repro.serve.engine as engine_module

        n_labels = predictor.arch.n_labels
        if k == "n_labels + 1":
            k = n_labels + 1
        built = []
        monkeypatch.setattr(
            engine_module, "RunRequests", lambda *a, **kw: built.append(a)
        )
        engine = ServingEngine(predictor, serve_server())
        with pytest.raises(ConfigurationError, match=f"\\[1, {n_labels}\\]"):
            engine.serve(micro_task.test.X, np.array([0.0, 1e-4]), k=k)
        assert built == []

    @pytest.mark.parametrize("bad", ["narrow", "dense"])
    def test_query_matrix_checked_once_before_the_sim_starts(
        self, predictor, micro_task, monkeypatch, bad
    ):
        """The predictor's sparse / feature-count check runs on the whole
        query matrix up front: no request exists yet, let alone a stamp."""
        import repro.serve.engine as engine_module

        built = []
        monkeypatch.setattr(
            engine_module, "RunRequests", lambda *a, **k: built.append(a)
        )
        X = scipy_csr(micro_task.test.X)
        X = X[:, :-1] if bad == "narrow" else X.toarray()
        engine = ServingEngine(predictor, serve_server())
        with pytest.raises(ConfigurationError, match="features|sparse"):
            engine.serve(X, np.array([0.0, 1e-4]))
        assert built == []

    def test_query_check_runs_once_per_serve(
        self, predictor, micro_task, monkeypatch
    ):
        checked = []
        check = Predictor.check_query

        def recording_check(pred, X):
            checked.append(X.shape[0])
            check(pred, X)

        monkeypatch.setattr(Predictor, "check_query", recording_check)
        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 200)
        ServingEngine(predictor, serve_server()).serve(X, arrivals, k=5)
        # The whole matrix once, then the one block the label table scored:
        # the 200 requests cycle through the pool, each row scored once.
        assert checked == [X.shape[0], min(200, X.shape[0])]


class TestTelemetry:
    def test_spans_and_attribution(self, predictor, micro_task):
        from repro.telemetry import Telemetry
        from repro.telemetry.analyze import analyze_report
        from repro.telemetry.events import REQUEST_COLUMNS, SPAN_SERVE_BATCH

        X = micro_task.test.X
        arrivals = saturating_arrivals(predictor, X, 100)
        tel = Telemetry(label="serve-test")
        engine = ServingEngine(
            predictor, serve_server(), mode="adaptive", telemetry=tel
        )
        result = engine.serve(X, arrivals, k=5)
        (run,) = tel.runs
        assert {s.name for s in run.spans} == {"run", SPAN_SERVE_BATCH}
        batch_spans = run.spans_named(SPAN_SERVE_BATCH)
        assert len(batch_spans) == len(result.batch_sizes)
        # The request table is recorded once, as lists equal to the run's
        # columns: every request served, on a device, done after arrival.
        table = run.requests
        for name in REQUEST_COLUMNS:
            column = getattr(table, name)
            assert type(column) is list and len(column) == 100
            assert column == np.asarray(getattr(result.requests, name)).tolist()
        assert table.tenant_names == ["default"]
        assert set(table.shed) == {0} and min(table.device) >= 0
        assert all(d >= a for a, d in zip(table.arrival, table.done))
        # The analytics engine must digest a serving-only trace with the
        # attribution invariant intact.
        report = analyze_report(tel)
        (run,) = report["runs"]
        assert run["attribution"]["max_residual"] <= 1e-6
        samples = sum(d["samples"] for d in run["attribution"]["devices"])
        assert samples == 100


# -- the benchmark's serve commands, pinned per request -------------------------
#: ``benchmarks/e2e`` smoke sizes, seed 1. Each entry: argv after the snapshot
#: stem, then per ``ServingEngine.serve`` call (``--tenants`` makes two: solo,
#: contended) the sha256 of every request's outcome, ``max_queue_depth`` and
#: ``n_shed``. Taken on the commit *before* cohort admission replaced the
#: per-request source process: the event core may change, outcomes may not.
BENCH_SERVE_PINS = {
    "replay": (
        ["--mode", "adaptive", "--requests", "3000", "--gpus", "2"],
        [("a242962c733ee3691ac8a69bd148bc7388dc041e4c8167b8510c034d4e080c04",
          88, 0)],
    ),
    "tenants": (
        ["--tenants", "--requests", "100", "--aggressor-factor", "20",
         "--max-queue-depth", "64", "--gpus", "2"],
        [("9b5766fdc26a536fcc497e92675f4da4aec37d7d660cd7ea8149f0d19d3db62f",
          3, 0),
         ("f0a572c4ddfa48996414c3464e9568634f1abcf6d04efe51cd9e4d38fb50d529",
          64, 77)],
    ),
    "churn": (
        ["--mode", "adaptive", "--churn", "spot-churn", "--autoscale",
         "--requests", "1000", "--gpus", "2"],
        [("b9b07c556d18b1699922af3b2572abebae712bcef314dceb9b2d7c6ecc2546c5",
          91, 0)],
    ),
}


def request_digest(result) -> str:
    """sha256 over what each request got: where, when, what, or why not.

    A request's labels hash as the list of ids, or ``None`` when it was shed
    (a -1 row), so the pins hold across the move from per-request lists to
    the result's label array. Read off the request table's columns, each
    sentinel (NaN, -1, shed code 0) hashes as the ``None`` of the
    per-request objects the pins were taken from, and a shed code as its
    reason string."""
    t = result.requests
    columns = zip(
        t.device.tolist(), t.dispatch.tolist(), t.done.tolist(),
        result.labels.tolist(), t.served_version.tolist(), t.shed.tolist(),
    )
    h = hashlib.sha256()
    for device, dispatch, done, row, served, code in columns:
        h.update(repr((
            None if device < 0 else device,
            None if math.isnan(dispatch) else dispatch,
            None if math.isnan(done) else done,
            None if code else row,
            None if served < 0 else served,
            code != 0, SHED_REASONS[code],
        )).encode())
    return h.hexdigest()


class TestBenchmarkCommandPins:
    @pytest.fixture(scope="class")
    def snapshot_stem(self, tmp_path_factory):
        from repro.cli import main

        stem = str(tmp_path_factory.mktemp("bench-serve") / "M")
        assert main([
            "snapshot", stem, "--dataset", "micro", "--time-budget-s",
            "0.01", "--gpus", "2", "--seed", "1",
        ]) == 0
        return stem

    @pytest.mark.parametrize("name", sorted(BENCH_SERVE_PINS))
    def test_per_request_outcomes_match_parent(
        self, name, snapshot_stem, monkeypatch, capsys
    ):
        from repro.cli import main

        argv, pins = BENCH_SERVE_PINS[name]
        results = []
        serve = ServingEngine.serve

        def recording_serve(engine, *args, **kwargs):
            results.append(serve(engine, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(ServingEngine, "serve", recording_serve)
        assert main(["serve", snapshot_stem, *argv, "--seed", "1"]) == 0
        capsys.readouterr()
        got = [
            (request_digest(r), r.max_queue_depth, r.n_shed)
            for r in results
        ]
        assert got == pins


# -- cohort admission: the tie rule, the idle wake, degenerate schedules --------
@pytest.fixture()
def sim_steps(monkeypatch):
    """Counts ``Environment.step`` calls (one per sim event) in a list cell."""
    from repro.sim.environment import Environment

    calls = [0]
    step = Environment.step

    def counting_step(env):
        calls[0] += 1
        step(env)

    monkeypatch.setattr(Environment, "step", counting_step)
    return calls


def one_gpu_engine(predictor, **options):
    options.setdefault("mode", "adaptive")
    return ServingEngine(predictor, serve_server(1), **options)


def first_service_end(predictor, X, t0=0.0):
    """When a lone request arriving at ``t0`` completes on the 1-GPU server."""
    result = one_gpu_engine(predictor).serve(X, np.array([t0]), k=5)
    return result.requests.done.tolist()[0]


class TestTieRule:
    """DESIGN.md section 9: an arrival whose time equals a waking instant is
    admitted before that wake acts (``searchsorted(..., side="right")``)."""

    @pytest.fixture(autouse=True)
    def cap_of_four(self, monkeypatch):
        """The sizer's floor at 4, so one pop can take r1 and r2 together."""
        monkeypatch.setattr(queue, "B_MIN", 4)

    def test_arrival_at_a_completion_instant_joins_that_pop(
        self, predictor, micro_task
    ):
        X = micro_task.test.X
        done = first_service_end(predictor, X)
        # r0 is in service until ``done``; r1 queues behind it; r2 arrives at
        # exactly ``done``. The worker waking there admits r2 *before* it
        # pops, so r1 and r2 leave in one batch.
        result = one_gpu_engine(predictor).serve(
            X, np.array([0.0, done / 2, done]), k=5
        )
        dispatch, t_done = result.requests.dispatch, result.requests.done
        assert t_done[0] == done
        assert dispatch[1] == dispatch[2] == done
        assert t_done[1] == t_done[2]
        assert result.batch_sizes == [1, 2]

    def test_arrival_one_ulp_later_misses_it(self, predictor, micro_task):
        X = micro_task.test.X
        done = first_service_end(predictor, X)
        late = np.nextafter(done, np.inf)
        result = one_gpu_engine(predictor).serve(
            X, np.array([0.0, done / 2, late]), k=5
        )
        dispatch, t_done = result.requests.dispatch, result.requests.done
        assert dispatch[1] == done
        assert dispatch[2] == t_done[1] > late
        assert result.batch_sizes == [1, 1, 1]


class TestIdleWake:
    """An idle worker sleeps to the next arrival: the wake lands on the
    arrival itself — never before it, never by spinning."""

    @staticmethod
    def rounding_case(predictor, X, *, overshoot):
        """``(t0, t)``: a first arrival ``t0`` whose completion ``now`` makes
        the naive wake ``now + (t - now)`` miss a second arrival ``t`` by an
        ulp. Only a double round-half-even tie does that, and which way is
        fixed by the low bits of ``now``: scan first arrivals, then the
        consecutive floats of each binade above ``now``, until one hits."""
        for t0 in np.arange(64) * 1e-7:
            now = first_service_end(predictor, X, float(t0))
            for exponent in range(1, 24):
                t = now * 1.5 * 2.0 ** exponent
                for _ in range(8):
                    naive = now + (t - now)
                    if (naive > t) if overshoot else (naive < t):
                        return float(t0), t
                    t = math.nextafter(t, math.inf)
        raise AssertionError("no rounding case found")

    @pytest.mark.parametrize("overshoot", [False, True])
    def test_lands_on_the_arrival_when_the_naive_delay_rounds_off(
        self, predictor, micro_task, sim_steps, overshoot
    ):
        X = micro_task.test.X
        t0, t = self.rounding_case(predictor, X, overshoot=overshoot)
        sim_steps[0] = 0
        result = one_gpu_engine(predictor).serve(X, np.array([t0, t]), k=5)
        assert result.requests.dispatch[1] == t
        # Worker start and end, two services, the wake for ``t0`` (if any),
        # and two sleeps to ``t``: the first lands an ulp short (overshoot:
        # because the delay was shortened by one), the re-sleep is exact.
        assert sim_steps[0] == 6 + int(t0 > 0)

    def test_arrival_one_ulp_after_a_completion_does_not_spin(
        self, predictor, micro_task, sim_steps
    ):
        X = micro_task.test.X
        done = first_service_end(predictor, X)
        late = float(np.nextafter(done, np.inf))
        sim_steps[0] = 0
        result = one_gpu_engine(predictor).serve(
            X, np.array([0.0, late]), k=5
        )
        assert result.requests.done[0] == done
        assert result.requests.dispatch[1] == late
        assert sim_steps[0] == 5


class TestDegenerateSchedules:
    def test_one_arrival(self, predictor, micro_task, sim_steps):
        result = ServingEngine(
            predictor, serve_server(), mode="adaptive"
        ).serve(micro_task.test.X, np.array([3e-4]), k=5)
        table = result.requests
        (dispatch,), (t_done,) = table.dispatch, table.done
        assert dispatch == 3e-4 and t_done > 3e-4
        assert result.batch_sizes == [1]
        # Per worker a start, an idle wake and an end; one service.
        assert sim_steps[0] == 7

    def test_all_arrivals_at_time_zero(self, predictor, micro_task, sim_steps):
        n = 300
        result = ServingEngine(
            predictor, serve_server(), mode="adaptive"
        ).serve(micro_task.test.X, np.zeros(n), k=5)
        assert not np.isnan(result.requests.done).any()
        # One cohort: everything is queued before the first pop.
        assert result.max_queue_depth == n
        assert result.requests.dispatch[0] == 0.0
        # No event but worker starts / ends and batch services.
        assert sim_steps[0] == 4 + len(result.batch_sizes)

    @pytest.mark.parametrize("mode", ["adaptive", "sequential"])
    def test_arrivals_far_sparser_than_service(
        self, predictor, micro_task, sim_steps, mode
    ):
        X = micro_task.test.X
        n, n_gpus = 40, 3
        gap = 1000.0 * first_service_end(predictor, X)
        arrivals = gap * np.arange(1, n + 1)
        sim_steps[0] = 0
        result = ServingEngine(
            predictor, serve_server(n_gpus), mode=mode
        ).serve(X, arrivals, k=5)
        assert result.batch_sizes == [1] * n
        assert result.max_queue_depth == 1
        table = result.requests
        for arrival, dispatch, t in zip(
            table.arrival.tolist(), table.dispatch.tolist(), arrivals.tolist()
        ):
            assert arrival == t
            assert dispatch >= t
            assert dispatch == pytest.approx(t, rel=1e-12)
        # Per request: every idle worker wakes (n_gpus) + one service.
        assert sim_steps[0] <= (n_gpus + 1) * n + 2 * n_gpus

    def test_every_device_parked_while_arrivals_are_due(
        self, predictor, micro_task, monkeypatch
    ):
        """The lone device is down over [2, 6) ms (``MIN_ACTIVE`` patched
        to 0: a state membership forbids, which the engine must still
        account for). Arrivals keep coming; only the membership manager is
        awake to admit them; they are served after the rejoin."""
        import repro.elastic.membership as membership_module
        from repro.elastic import (
            ClusterMembership,
            MembershipEvent,
            MembershipTimeline,
        )

        X = micro_task.test.X
        server = serve_server(1)
        membership = ClusterMembership(server, MembershipTimeline([
            MembershipEvent(2e-3, "fail", 0),
            MembershipEvent(6e-3, "join", 0),
        ]))
        monkeypatch.setattr(membership_module, "MIN_ACTIVE", 0)
        arrivals = np.linspace(0.0, 8e-3, 81)
        result = ServingEngine(predictor, server, mode="adaptive").serve(
            X, arrivals, k=5, membership=membership
        )
        assert [e["kind"] for e in result.membership_events] == [
            "fail", "join",
        ]
        table = result.requests
        served = ~np.isnan(table.done)
        assert table.arrival.size == served.sum() + result.n_shed == 81
        dark = (2e-3 < table.arrival) & (table.arrival < 6e-3)
        assert dark.sum() == 39
        assert (table.dispatch[dark] >= 6e-3).all()
        assert result.max_queue_depth >= dark.sum()
        assert (table.dispatch >= table.arrival).all()
