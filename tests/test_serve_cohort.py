"""Cohort admission against the per-arrival admission it replaced.

``ServeRun.admit_due`` hands each due cohort to one
``TenantScheduler.admit`` call, which queues the shed-free prefix in bulk;
``tests/reference.py::PerArrivalServeRun`` offers every due arrival to
``push`` on its own. On the degenerate schedules — every arrival at one
instant (one cohort), a single request, a depth limit of one — both runs
must account for every offered request, give each the same stamps and
labels, and record the same request table, shed codes included.
"""

import numpy as np
import pytest

from repro.serve import LoadSpec, Predictor, ServingEngine, generate_arrivals
from repro.serve.run import ServeRun
from repro.telemetry import Telemetry
from tests import reference
from tests.test_serve_flush import assert_same_stamps, server, snapshot
from tests.test_telemetry_trace_data import canon

N = 300


@pytest.fixture(scope="module")
def predictor(micro_task):
    return Predictor(snapshot(micro_task, 21))


def serve_both(monkeypatch, predictor, X, arrivals, **options):
    """The result and recorded request table of one schedule, per
    admission path."""
    tagged = options.pop("tagged", False)
    n = arrivals.size
    tags = {}
    if tagged:
        tags = dict(
            tenants=np.where(np.arange(n) % 3 == 0, "a", "b").astype(object),
            priority_classes=(np.arange(n) % 2).astype(np.int64),
        )
        options["class_slo_ms"] = {0: 2.0, 1: 2.0}
    out = []
    for run_class in (ServeRun, reference.PerArrivalServeRun):
        with monkeypatch.context() as patch:
            patch.setattr("repro.serve.engine.ServeRun", run_class)
            tel = Telemetry(label="cohort")
            engine = ServingEngine(
                predictor, server(), mode="adaptive", telemetry=tel,
                **options,
            )
            result = engine.serve(X, arrivals, k=5, **tags)
        out.append((result, tel.runs[0].requests))
    return out


def saturating(predictor, X, n):
    per_request = server().gpus[0].cost_model.inference_time(
        predictor.workload(X[:1]), n_active_gpus=2
    )
    return generate_arrivals(
        LoadSpec(n_requests=n, rate_rps=20.0 / per_request, seed=3)
    )


def assert_same_run(shipped, oracle):
    (a, a_table), (b, b_table) = shipped, oracle
    table = a.requests
    served = int(np.isfinite(table.done).sum())
    shed = int((table.shed != 0).sum())
    assert served + shed == table.arrival.size
    assert served == len(a.latencies_s)
    assert_same_stamps(a, b)
    assert np.array_equal(a.labels, b.labels)
    assert (a.labels[table.shed != 0] == -1).all()
    assert a.batch_sizes == b.batch_sizes
    assert canon(a_table) == canon(b_table)
    assert len(a_table.shed) - a_table.shed.count(0) == shed


class TestDegenerateSchedules:
    @pytest.mark.parametrize("options", [
        {},
        {"max_queue_depth": 64},
        {"max_queue_depth": 64, "admission_utilization": 0.5,
         "tagged": True},
    ], ids=["unbounded", "limit", "tenants-gate"])
    def test_every_arrival_at_one_instant(
        self, monkeypatch, predictor, micro_task, options
    ):
        """One cohort: a bulk prefix, then per-arrival sheds past it."""
        X = micro_task.test.X
        shipped, oracle = serve_both(
            monkeypatch, predictor, X, np.zeros(N), **options
        )
        assert_same_run(shipped, oracle)
        sheds = int((shipped[0].requests.shed != 0).sum())
        limit = options.get("max_queue_depth")
        assert sheds == (0 if limit is None else N - limit)

    def test_one_request(self, monkeypatch, predictor, micro_task):
        shipped, oracle = serve_both(
            monkeypatch, predictor, micro_task.test.X, np.array([2e-4])
        )
        assert_same_run(shipped, oracle)
        assert shipped[0].requests.dispatch.tolist() == [2e-4]

    @pytest.mark.parametrize("tagged", [False, True])
    def test_depth_limit_of_one(
        self, monkeypatch, predictor, micro_task, tagged
    ):
        X = micro_task.test.X
        shipped, oracle = serve_both(
            monkeypatch, predictor, X, saturating(predictor, X, N),
            max_queue_depth=1, tagged=tagged,
        )
        assert_same_run(shipped, oracle)
        assert (shipped[0].requests.shed != 0).any()
        assert max(shipped[0].batch_sizes) == 1
