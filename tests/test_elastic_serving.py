"""Elastic serving: churned replay, the autoscaler, and result plumbing."""

import numpy as np
import pytest

from repro.elastic import ClusterMembership, MembershipEvent, MembershipTimeline
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from repro.harness.report import render_membership
from repro.serve import (
    LoadSpec,
    ModelSnapshot,
    Predictor,
    ServingEngine,
    generate_arrivals,
)
from repro.serve.autoscale import HIGH_DEPTH, LOW_DEPTH, autoscale_decision
from repro.serve.queue import RunRequests, TenantScheduler
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


def arrivals_for(predictor, X, n_requests, *, seed=0, factor=10.0):
    work = predictor.workload(X[:1])
    per_request = serve_server().gpus[0].cost_model.inference_time(
        work, n_active_gpus=2
    )
    rate = factor * 2 / per_request
    spec = LoadSpec(n_requests=n_requests, rate_rps=rate, seed=seed)
    return generate_arrivals(spec)


def churned_serve(predictor, X, events, *, n_requests=150, mode="adaptive",
                  n_gpus=2, **options):
    arrivals = arrivals_for(predictor, X, n_requests)
    span = float(arrivals[-1])
    server = serve_server(n_gpus)
    timeline = MembershipTimeline([
        e if isinstance(e, MembershipEvent)
        else MembershipEvent(e[0] * span, *e[1:])
        for e in events
    ])
    membership = ClusterMembership(server, timeline)
    engine = ServingEngine(predictor, server, mode=mode, **options)
    result = engine.serve(X, arrivals, k=5, membership=membership)
    return result, membership


class TestChurnedServing:
    def test_fail_mid_run_still_serves_everything(self, predictor, micro_task):
        X = micro_task.test.X
        result, membership = churned_serve(
            predictor, X, [(0.4, "fail", 1)]
        )
        assert not np.isnan(result.requests.done).any()
        assert membership.n_active == 1
        assert result.n_membership_events == 1
        assert result.final_devices == 1
        # the survivor absorbed the failed device's share
        assert result.per_device[0] > result.per_device.get(1, 0)

    def test_join_mid_run_takes_load(self, predictor, micro_task):
        X = micro_task.test.X
        result, membership = churned_serve(
            predictor, X, [(0.3, "join", 2)]
        )
        assert membership.n_active == 3
        assert result.final_devices == 3
        assert result.per_device.get(2, 0) > 0  # the joiner served requests
        assert not np.isnan(result.requests.done).any()

    def test_throttle_and_recover(self, predictor, micro_task):
        X = micro_task.test.X
        result, membership = churned_serve(
            predictor, X,
            [(0.3, "throttle", 0, 0.25), (0.7, "recover", 0)],
        )
        assert result.n_membership_events == 2
        assert membership.server.device(0).speed_scale == 1.0
        assert not np.isnan(result.requests.done).any()

    def test_membership_events_in_result_dict(self, predictor, micro_task):
        X = micro_task.test.X
        result, _ = churned_serve(predictor, X, [(0.4, "fail", 1)])
        out = result.as_dict()
        assert out["membership"]["n_events"] == 1
        assert out["membership"]["final_devices"] == 1
        (event,) = out["membership"]["events"]
        assert event["kind"] == "fail" and event["applied"]
        headline = result.headline_metrics()
        assert headline["n_membership_events"] == 1.0
        assert headline["final_devices"] == 1.0

    def test_static_run_has_no_membership_keys(self, predictor, micro_task):
        X = micro_task.test.X
        arrivals = arrivals_for(predictor, X, 60)
        engine = ServingEngine(predictor, serve_server(), mode="adaptive")
        result = engine.serve(X, arrivals, k=5)
        assert result.final_devices is None
        assert "membership" not in result.as_dict()
        assert "n_membership_events" not in result.headline_metrics()

    def test_membership_for_wrong_server_rejected(self, predictor, micro_task):
        X = micro_task.test.X
        arrivals = arrivals_for(predictor, X, 20)
        engine = ServingEngine(predictor, serve_server(), mode="adaptive")
        other = ClusterMembership(serve_server(), MembershipTimeline([]))
        with pytest.raises(ConfigurationError):
            engine.serve(X, arrivals, k=5, membership=other)


class TestAutoscaler:
    def test_burst_admits_then_quiet_retires(self, predictor, micro_task):
        X = micro_task.test.X
        burst = arrivals_for(predictor, X, 240, factor=40.0)
        quiet_gap = float(burst[-1])
        quiet = burst[-1] + np.linspace(
            quiet_gap * 0.5, quiet_gap * 6.0, 80
        )
        arrivals = np.concatenate([burst, quiet])
        server = serve_server(2)
        membership = ClusterMembership(server, MembershipTimeline([]))
        engine = ServingEngine(
            predictor, server, mode="adaptive", autoscale=True,
        )
        result = engine.serve(X, arrivals, k=5, membership=membership)
        assert result.n_autoscale_admits >= 1
        assert result.n_autoscale_retires >= 1
        assert membership.n_active == 2  # back to baseline after the burst
        assert not np.isnan(result.requests.done).any()

    def test_tick_sees_arrivals_no_worker_has_admitted_yet(
        self, predictor, micro_task
    ):
        """Cohort admission's catch-up contract, autoscaler side: the only
        worker is mid-batch when a burst of ``HIGH_DEPTH`` requests arrives,
        so nobody has admitted it when the membership manager next ticks —
        the manager admits what is due itself, *before*
        ``autoscale_decision`` reads ``depth``, and scales out on that tick.

        Mutation: delete the ``run.admit_due()`` after the manager's
        ``yield`` and the tick reads depth 0; the join slips until the
        worker finishes its batch."""
        X = micro_task.test.X
        server = serve_server(1)
        service = server.gpus[0].cost_model.inference_time(
            predictor.workload(X[:1]), n_active_gpus=1
        )
        arrivals = np.concatenate([[0.0], np.full(HIGH_DEPTH, 0.25 * service)])
        membership = ClusterMembership(server, MembershipTimeline([]))
        engine = ServingEngine(
            predictor, server, mode="sequential", autoscale=True,
        )
        result = engine.serve(
            X, arrivals, k=5, row_indices=np.zeros(arrivals.size, dtype=int),
            membership=membership,
        )
        table = result.requests
        first_done = table.done[0]
        join = result.membership_events[0]
        assert (join["kind"], join["source"]) == ("join", "autoscaler")
        # The poll cadence is 1/256 of the arrival window: the first tick
        # at or after the burst scales out.
        assert join["t"] == pytest.approx(0.25 * service, rel=1e-2)
        assert join["t"] < first_done
        # The admitted device went to work while device 0 was still busy.
        assert table.dispatch[table.device == 1].min() < first_done
        assert not np.isnan(result.requests.done).any()


class TestAutoscaleDecision:
    """The rule alone, at its boundaries — no simulation."""

    @pytest.mark.parametrize("n_admitted", [0, 1, 3])
    def test_admits_exactly_at_the_scaled_threshold(self, n_admitted):
        threshold = HIGH_DEPTH * (1 + n_admitted)
        assert autoscale_decision(threshold, n_admitted, 4) == "admit"
        assert autoscale_decision(threshold - 1, n_admitted, 4) is None

    def test_retires_only_its_own_admissions(self):
        assert autoscale_decision(LOW_DEPTH, 1, 3) == "retire"
        assert autoscale_decision(LOW_DEPTH, 0, 3) is None
        assert autoscale_decision(LOW_DEPTH + 1, 1, 3) is None

    def test_never_retires_at_the_device_floor(self):
        assert autoscale_decision(0, 1, 1) is None
        assert autoscale_decision(0, 1, 2) == "retire"


class TestSchedulerDeviceCount:
    def test_set_n_devices(self):
        sched = TenantScheduler(RunRequests(
            np.arange(1), np.zeros(1), None, None, 1
        ), n_devices=2)
        sched.set_n_devices(4)
        assert sched._n_devices == 4
        with pytest.raises(ConfigurationError):
            sched.set_n_devices(0)


class TestReportRendering:
    def test_render_membership_lists_events(self):
        text = render_membership({
            "n_events": 2,
            "n_applied": 2,
            "n_suppressed": 0,
            "by_kind": {"fail": 1, "join": 1},
            "by_source": {"timeline": 2},
            "active_devices": {"initial": 4, "final": 4, "min": 3, "max": 4},
            "events": [
                {"t": 0.01, "kind": "fail", "device": 2, "source": "timeline",
                 "loss_before": 1.2, "loss_after": 1.4, "loss_delta": 0.2},
                {"t": 0.02, "kind": "join", "device": 4, "source": "timeline",
                 "requests_in_window": 12, "p99_in_window_s": 0.004,
                 "p99_steady_s": 0.002},
            ],
        })
        assert "fail" in text and "join" in text
        assert "device" in text.lower()
