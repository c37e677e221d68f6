"""Tests for repro.elastic.timeline — events, schedules, churn presets."""

import pytest

from repro.elastic import (
    EVENT_KINDS,
    MembershipEvent,
    MembershipTimeline,
    make_churn_timeline,
)
from repro.exceptions import ConfigurationError
from repro.gpu.profiles import CHURN_PRESETS, churn_preset_names


class TestMembershipEvent:
    def test_valid_kinds(self):
        for kind in EVENT_KINDS:
            factor = 0.5 if kind == "throttle" else None
            e = MembershipEvent(1.0, kind, 0, factor=factor)
            assert e.kind == kind

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            MembershipEvent(1.0, "explode", 0)

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigurationError):
            MembershipEvent(-0.1, "join", 0)

    def test_throttle_requires_factor(self):
        with pytest.raises(ConfigurationError):
            MembershipEvent(1.0, "throttle", 0)
        with pytest.raises(ConfigurationError):
            MembershipEvent(1.0, "throttle", 0, factor=0.0)
        with pytest.raises(ConfigurationError):
            MembershipEvent(1.0, "throttle", 0, factor=1.5)

    def test_non_throttle_rejects_factor(self):
        with pytest.raises(ConfigurationError):
            MembershipEvent(1.0, "fail", 0, factor=0.5)


class TestMembershipTimeline:
    def test_sorts_by_time(self):
        tl = MembershipTimeline([
            MembershipEvent(2.0, "leave", 0),
            MembershipEvent(1.0, "fail", 1),
        ])
        assert [e.t for e in tl.events] == [1.0, 2.0]

    def test_stable_sort_preserves_equal_time_order(self):
        tl = MembershipTimeline([
            MembershipEvent(1.0, "fail", 0),
            MembershipEvent(1.0, "join", 1),
        ])
        assert [e.kind for e in tl.events] == ["fail", "join"]

    def test_counts(self):
        tl = MembershipTimeline([
            MembershipEvent(1.0, "fail", 0),
            MembershipEvent(2.0, "fail", 1),
            MembershipEvent(3.0, "join", 2),
        ])
        assert tl.counts() == {"fail": 2, "join": 1}


class TestTimelineCursor:
    def test_due_is_exactly_once(self):
        tl = MembershipTimeline([
            MembershipEvent(1.0, "fail", 0),
            MembershipEvent(2.0, "join", 1),
        ])
        cursor = tl.cursor()
        first = cursor.due(1.5)
        assert [e.kind for e in first] == ["fail"]
        assert cursor.due(1.5) == ()
        second = cursor.due(10.0)
        assert [e.kind for e in second] == ["join"]
        assert cursor.remaining == 0

    def test_peek_t(self):
        tl = MembershipTimeline([MembershipEvent(3.0, "fail", 0)])
        cursor = tl.cursor()
        assert cursor.peek_t() == 3.0
        cursor.due(5.0)
        assert cursor.peek_t() is None

    def test_delivered_counts(self):
        tl = MembershipTimeline([
            MembershipEvent(1.0, "fail", 0),
            MembershipEvent(2.0, "join", 1),
        ])
        cursor = tl.cursor()
        cursor.due(1.0)
        assert cursor.delivered == 1
        assert cursor.remaining == 1


class TestChurnPresets:
    def test_preset_names_cover_the_documented_table(self):
        assert set(churn_preset_names()) == {
            "stable", "flaky-one", "spot-churn", "brownout"
        }
        assert set(churn_preset_names()) == set(CHURN_PRESETS)

    def test_stable_is_empty(self):
        tl = make_churn_timeline("stable", n_devices=4, duration_s=1.0)
        assert len(tl) == 0

    def test_flaky_one_throttles_and_recovers(self):
        tl = make_churn_timeline("flaky-one", n_devices=4, duration_s=1.0)
        counts = tl.counts()
        assert counts["throttle"] == 1
        assert counts["recover"] == 1

    def test_spot_churn_has_fail_join_throttle(self):
        tl = make_churn_timeline("spot-churn", n_devices=2, duration_s=1.0)
        counts = tl.counts()
        assert counts["fail"] >= 1
        assert counts["join"] >= 1
        assert counts["throttle"] >= 1

    def test_spot_churn_scales_with_devices(self):
        small = make_churn_timeline("spot-churn", n_devices=2, duration_s=1.0)
        big = make_churn_timeline("spot-churn", n_devices=8, duration_s=1.0)
        assert big.counts()["fail"] > small.counts()["fail"]

    def test_brownout_throttles_every_device(self):
        tl = make_churn_timeline("brownout", n_devices=4, duration_s=1.0)
        throttled = {e.device_id for e in tl.events if e.kind == "throttle"}
        assert throttled == {0, 1, 2, 3}

    def test_deterministic_for_a_seed(self):
        a = make_churn_timeline("spot-churn", n_devices=4, duration_s=1.0, seed=7)
        b = make_churn_timeline("spot-churn", n_devices=4, duration_s=1.0, seed=7)
        assert a.events == b.events

    def test_seed_changes_schedule(self):
        a = make_churn_timeline("spot-churn", n_devices=4, duration_s=1.0, seed=0)
        b = make_churn_timeline("spot-churn", n_devices=4, duration_s=1.0, seed=1)
        assert a.events != b.events

    def test_events_fit_the_duration(self):
        tl = make_churn_timeline("spot-churn", n_devices=4, duration_s=2.5)
        assert all(0.0 <= e.t <= 2.5 for e in tl.events)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            make_churn_timeline("nope", n_devices=2, duration_s=1.0)
