"""Elastic training: membership-aware Adaptive SGD end to end.

Covers the rescale math, the no-churn equivalence guarantee, the ledger
accounting surfaced through ``trace.metadata``, and the fail-and-rejoin
acceptance path with telemetry attribution.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSGDTrainer
from repro.core.config import AdaptiveSGDConfig
from repro.core.scaling import rescale_for_membership
from repro.elastic import ClusterMembership, MembershipEvent, MembershipTimeline
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from repro.telemetry import Telemetry, load_trace_data
from repro.telemetry.analyze import headline_metrics, membership_events
from repro.telemetry.events import EVENT_MEMBERSHIP

BUDGET = 0.04


def fresh_server(n=4, seed=5):
    return make_server(
        n, seed=seed, cost_params=GpuCostParams.tiny_model_profile()
    )


def run_elastic(micro_task, events, *, budget=BUDGET, telemetry=None,
                server=None, **cfg_kwargs):
    server = server or fresh_server()
    membership = None
    if events is not None:
        timeline = (events if isinstance(events, MembershipTimeline)
                    else MembershipTimeline(events))
        membership = ClusterMembership(server, timeline, telemetry=telemetry)
    defaults = dict(b_max=64, base_lr=0.2, mega_batch_batches=16)
    defaults.update(cfg_kwargs)
    cfg = AdaptiveSGDConfig(**defaults)
    trainer = AdaptiveSGDTrainer(
        micro_task, server, cfg, hidden=(32,), init_seed=7, data_seed=3,
        eval_samples=128, telemetry=telemetry, membership=membership,
    )
    return trainer.run(time_budget_s=budget), membership


class TestRescaleForMembership:
    def test_departure_grows_survivor_batches(self):
        out = rescale_for_membership(
            [32, 32, 32], [0.1, 0.1, 0.1], n_before=4, b_min=8, b_max=64
        )
        assert out.batch_sizes == (43, 43, 43)
        assert out.changed
        # linear LR scaling follows the realized integer ratio
        for b_new, lr_new in zip(out.batch_sizes, out.learning_rates):
            assert lr_new == pytest.approx(0.1 * b_new / 32)

    def test_join_shrinks_survivors_and_ramps_joiner(self):
        out = rescale_for_membership(
            [64, 64], [0.2, 0.2], n_before=2, n_joining=1, b_min=8, b_max=64
        )
        assert all(b < 64 for b in out.batch_sizes)
        mean_b = sum(out.batch_sizes) / 2
        assert out.join_batch_size == pytest.approx(mean_b * 0.5, abs=1)
        assert 8 <= out.join_batch_size <= 64
        assert out.join_learning_rate > 0

    def test_no_change_is_identity(self):
        out = rescale_for_membership(
            [32, 48], [0.1, 0.15], n_before=2, b_min=8, b_max=64
        )
        assert out.batch_sizes == (32, 48)
        assert out.learning_rates == (0.1, 0.15)
        assert not out.changed

    def test_clamps_to_bounds(self):
        out = rescale_for_membership(
            [60], [0.1], n_before=4, b_min=8, b_max=64
        )
        assert out.batch_sizes == (64,)  # 60 * 4 clamped down

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            rescale_for_membership([], [], n_before=2, b_min=8, b_max=64)
        with pytest.raises(ConfigurationError):
            rescale_for_membership([32], [0.1, 0.2], n_before=2,
                                   b_min=8, b_max=64)
        with pytest.raises(ConfigurationError):
            rescale_for_membership([32], [0.1], n_before=0, b_min=8, b_max=64)
        with pytest.raises(ConfigurationError):
            rescale_for_membership([32], [0.1], n_before=2, n_joining=-1,
                                   b_min=8, b_max=64)


class TestStaticEquivalence:
    def test_empty_timeline_matches_no_membership(self, micro_task):
        baseline, _ = run_elastic(micro_task, None)
        elastic, membership = run_elastic(micro_task, [])
        assert membership.n_events == 0
        assert len(baseline) == len(elastic)
        for a, b in zip(baseline.points, elastic.points):
            assert a.time_s == b.time_s
            assert a.loss == b.loss or (
                np.isnan(a.loss) and np.isnan(b.loss)
            )
            assert a.accuracy == b.accuracy

    def test_membership_bound_to_other_server_rejected(self, micro_task):
        other = fresh_server()
        membership = ClusterMembership(other, MembershipTimeline([]))
        with pytest.raises(ConfigurationError):
            AdaptiveSGDTrainer(
                micro_task, fresh_server(),
                AdaptiveSGDConfig(b_max=64, mega_batch_batches=16),
                membership=membership,
            )

    def test_membership_type_checked(self, micro_task):
        with pytest.raises(ConfigurationError):
            AdaptiveSGDTrainer(
                micro_task, fresh_server(),
                AdaptiveSGDConfig(b_max=64, mega_batch_batches=16),
                membership="spot-churn",
            )


class TestChurnedTraining:
    def test_fail_discards_exactly_and_run_completes(self, micro_task):
        trace, membership = run_elastic(
            micro_task, [MembershipEvent(0.012, "fail", 1)]
        )
        summary = trace.metadata["membership"]
        assert summary["n_applied"] == 1
        assert summary["by_kind"] == {"fail": 1}
        assert summary["final_devices"] == 3
        assert summary["updates_merged"] > 0
        # the failed replica's in-flight contribution is discarded, once
        assert summary["updates_discarded"] > 0
        assert trace.best_accuracy > trace.points[0].accuracy

    def test_join_provisions_and_participates(self, micro_task):
        trace, membership = run_elastic(
            micro_task, [MembershipEvent(0.012, "join", 4)]
        )
        assert membership.n_active == 5
        assert membership.server.n_gpus == 5
        assert trace.metadata["membership"]["by_kind"] == {"join": 1}

    def test_throttle_recover_runs_clean(self, micro_task):
        trace, membership = run_elastic(
            micro_task,
            [MembershipEvent(0.008, "throttle", 0, factor=0.3),
             MembershipEvent(0.024, "recover", 0)],
        )
        assert trace.metadata["membership"]["n_applied"] == 2
        assert membership.server.device(0).speed_scale == 1.0

    def test_spot_churn_preset_stays_in_learning_range(self, micro_task):
        static, _ = run_elastic(micro_task, None, budget=0.05)
        server = fresh_server()
        timeline = ClusterMembership(
            server, "spot-churn", duration_s=0.05, seed=3
        ).timeline
        churned, membership = run_elastic(
            micro_task, timeline, budget=0.05, server=server
        )
        assert membership.n_events >= 3
        # churn costs accuracy but must not destroy the run (bench gates
        # the tight factor; this is the smoke-level sanity floor)
        assert churned.best_accuracy > static.points[0].accuracy + 0.1


class TestFailAndRejoinAcceptance:
    """The PR's end-to-end story: a replica fails mid-training, a
    replacement joins, the run completes, and analyze pins the blip."""

    @pytest.fixture(scope="class")
    def accepted(self, micro_task):
        tel = Telemetry(label="elastic-acceptance")
        trace, membership = run_elastic(
            micro_task,
            [MembershipEvent(0.012, "fail", 2),
             MembershipEvent(0.024, "join", 4)],
            telemetry=tel,
        )
        return trace, membership, tel

    def test_run_completes_with_both_events(self, accepted):
        trace, membership, _ = accepted
        summary = trace.metadata["membership"]
        assert summary["by_kind"] == {"fail": 1, "join": 1}
        assert summary["n_applied"] == 2
        assert membership.n_active == 4  # lost one, gained one
        assert trace.best_accuracy > trace.points[0].accuracy

    def test_ledger_accounts_every_update(self, accepted):
        trace, _, _ = accepted
        summary = trace.metadata["membership"]
        assert summary["updates_merged"] > 0
        assert summary["updates_discarded"] >= 0
        # exactly-once: every offered update ended merged or discarded;
        # run() would have raised MembershipError otherwise.

    def test_telemetry_emits_membership_instants(self, accepted):
        _, _, tel = accepted
        run = load_trace_data(tel).run(0)
        instants = [i for i in run.instants if i.name == EVENT_MEMBERSHIP]
        assert len(instants) == 2
        kinds = {i.args["kind"] for i in instants}
        assert kinds == {"fail", "join"}

    def test_analyze_attributes_the_blip(self, accepted):
        _, _, tel = accepted
        run = load_trace_data(tel).run(0)
        section = membership_events(run)
        assert section is not None
        assert section["n_events"] == 2
        assert section["active_devices"]["initial"] == 4
        assert section["active_devices"]["min"] == 3
        assert section["active_devices"]["final"] == 4
        events = section["events"]
        assert [e["kind"] for e in events] == ["fail", "join"]
        fail = events[0]
        assert fail["loss_before"] is not None
        assert fail["loss_after"] is not None
        assert fail["loss_delta"] == pytest.approx(
            fail["loss_after"] - fail["loss_before"]
        )

    def test_headline_metrics_carry_membership(self, accepted):
        _, _, tel = accepted
        run = load_trace_data(tel).run(0)
        out = headline_metrics(run)
        assert out["n_membership_events"] == 2
        assert out["final_devices"] == 4
