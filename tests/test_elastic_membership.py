"""Tests for repro.elastic.membership — the active-set state machine."""

import pytest

from repro.elastic import (
    ClusterMembership,
    MembershipEvent,
    MembershipTimeline,
    UpdateLedger,
)
from repro.exceptions import ConfigurationError, MembershipError
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams


def server(n=3, seed=0):
    return make_server(
        n, cost_params=GpuCostParams.tiny_model_profile(), seed=seed
    )


def membership(events, n=3, **kwargs):
    return ClusterMembership(
        server(n), MembershipTimeline(events), **kwargs
    )


class TestUpdateLedger:
    def test_offer_resolve_counts(self):
        ledger = UpdateLedger()
        t0 = ledger.offer(0, 5)
        t1 = ledger.offer(1, 3)
        ledger.resolve(t0, merged=True)
        ledger.resolve(t1, merged=False)
        assert ledger.n_merged == 1
        assert ledger.n_discarded == 1
        assert ledger.updates_merged == 5
        assert ledger.updates_discarded == 3
        ledger.assert_drained()

    def test_double_resolve_raises(self):
        ledger = UpdateLedger()
        token = ledger.offer(0, 1)
        ledger.resolve(token, merged=True)
        with pytest.raises(MembershipError):
            ledger.resolve(token, merged=True)

    def test_unresolved_offer_fails_drain(self):
        ledger = UpdateLedger()
        ledger.offer(0, 1)
        with pytest.raises(MembershipError):
            ledger.assert_drained()

    def test_negative_offer_rejected(self):
        with pytest.raises(MembershipError):
            UpdateLedger().offer(0, -1)


class TestActiveSet:
    def test_initial_active_set_is_every_installed_device(self):
        m = membership([], n=3)
        assert m.active_ids == (0, 1, 2)
        assert m.n_active == 3
        assert all(m.is_active(i) for i in range(3))

    def test_fail_removes_device(self):
        m = membership([MembershipEvent(1.0, "fail", 1)])
        m.poll(2.0)
        assert m.active_ids == (0, 2)
        failed, departed, joined = m.take_sync()
        assert failed == {1}
        assert departed == set()
        assert joined == []

    def test_leave_is_graceful(self):
        m = membership([MembershipEvent(1.0, "leave", 2)])
        m.poll(2.0)
        failed, departed, _ = m.take_sync()
        assert failed == set()
        assert departed == {2}

    def test_take_sync_clears(self):
        m = membership([MembershipEvent(1.0, "fail", 1)])
        m.poll(2.0)
        m.take_sync()
        assert m.take_sync() == (set(), set(), [])

    def test_throttle_and_recover_touch_speed_scale(self):
        m = membership([
            MembershipEvent(1.0, "throttle", 0, factor=0.25),
            MembershipEvent(2.0, "recover", 0),
        ])
        m.poll(1.5)
        assert m.server.device(0).speed_scale == 0.25
        assert m.is_active(0)  # throttled devices stay in the set
        m.poll(2.5)
        assert m.server.device(0).speed_scale == 1.0

    def test_min_active_suppresses_last_departure(self):
        m = membership([
            MembershipEvent(1.0, "fail", 0),
            MembershipEvent(1.0, "fail", 1),
            MembershipEvent(1.0, "fail", 2),
        ])
        applied = m.poll(2.0)
        assert m.n_active == 1
        assert [e.applied for e in applied] == [True, True, False]
        assert m.n_suppressed == 1

    def test_fail_of_unknown_device_suppressed(self):
        m = membership([MembershipEvent(1.0, "fail", 9)])
        (event,) = m.poll(2.0)
        assert not event.applied


class TestJoins:
    def test_join_provisions_a_new_device(self):
        m = membership([MembershipEvent(1.0, "join", 3)], n=3)
        (event,) = m.poll(2.0)
        assert event.applied
        assert m.server.n_gpus == 4
        assert m.active_ids == (0, 1, 2, 3)
        _, _, joined = m.take_sync()
        assert joined == [3]

    def test_join_keeps_ids_contiguous(self):
        m = membership([MembershipEvent(1.0, "join", 17)], n=2)
        (event,) = m.poll(2.0)
        assert event.device_id == 2
        assert "alias" in event.note

    def test_rejoin_reactivates_and_resets_throttle(self):
        m = membership([
            MembershipEvent(1.0, "throttle", 1, factor=0.5),
            MembershipEvent(2.0, "leave", 1),
            MembershipEvent(3.0, "join", 1),
        ])
        m.poll(2.5)
        assert not m.is_active(1)
        m.poll(3.5)
        assert m.is_active(1)
        assert m.server.device(1).speed_scale == 1.0
        assert m.server.n_gpus == 3  # no fresh provision for a rejoin

    def test_join_of_active_device_suppressed(self):
        m = membership([MembershipEvent(1.0, "join", 0)])
        (event,) = m.poll(2.0)
        assert not event.applied

    def test_joins_parked_until_admitting_poll(self):
        m = membership([MembershipEvent(1.0, "join", 3)], n=3)
        assert m.poll(2.0, admit_joins=False) == []
        assert len(m._pending_joins) == 1
        assert m.next_event_t() == 0.0  # parked joins are already due
        (event,) = m.poll(2.0, admit_joins=True)
        assert event.kind == "join" and event.applied

    def test_rejoin_cancels_pending_departure_record(self):
        m = membership([
            MembershipEvent(1.0, "fail", 1),
            MembershipEvent(2.0, "join", 1),
        ])
        m.poll(3.0)
        failed, departed, joined = m.take_sync()
        assert failed == set()
        assert departed == set()
        assert joined == [1]


class TestAutoscalerHooks:
    def test_admit_prefers_inactive_installed_device(self):
        m = membership([MembershipEvent(1.0, "leave", 1)])
        m.poll(2.0)
        event = m.admit(3.0)
        assert event.device_id == 1
        assert m.server.n_gpus == 3

    def test_admit_provisions_when_all_active(self):
        m = membership([])
        event = m.admit(1.0)
        assert event.device_id == 3
        assert m.server.n_gpus == 4

    def test_retire(self):
        m = membership([])
        event = m.retire(1.0, 2)
        assert event.applied
        assert m.active_ids == (0, 1)
        assert event.source == "autoscaler"


class TestConstruction:
    def test_preset_name_needs_duration(self):
        with pytest.raises(ConfigurationError):
            ClusterMembership(server(), "spot-churn")

    def test_preset_name_resolves(self):
        m = ClusterMembership(server(), "spot-churn", duration_s=1.0)
        assert m._cursor.remaining >= 3

    def test_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            ClusterMembership(server(), 42)

    def test_summary_shape(self):
        m = membership([
            MembershipEvent(1.0, "fail", 0),
            MembershipEvent(2.0, "join", 3),
        ])
        m.poll(3.0)
        summary = m.summary()
        assert summary["n_events"] == 2
        assert summary["n_applied"] == 2
        assert summary["by_kind"] == {"fail": 1, "join": 1}
        assert summary["final_devices"] == 3
