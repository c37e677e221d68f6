"""Tests for repro.serve.queue — the multi-tenant priority + round-robin
scheduler (and its single-tenant FIFO degenerate case) and the adaptive
batch sizer."""

import pytest

from repro.exceptions import ConfigurationError
from repro.serve.queue import (
    B_MAX,
    B_MIN,
    AdaptiveBatchSizer,
    TenantScheduler,
)
from repro.telemetry.events import SHED_REASONS
from tests.reference import request_table


def scheduler(specs=(), n=0, **kwargs):
    """A scheduler over requests ``0..``: one ``(tenant, class, version)``
    per id from ``specs``, then ``n`` more of tenant "a", class 0,
    version 1."""
    specs = [*specs, *[("a", 0, 1)] * n]
    tenants, classes, versions = zip(*specs) if specs else ((), (), ())
    n_classes = kwargs.get("n_priority_classes", 1)
    return TenantScheduler(
        request_table(tenants, classes, versions, n_classes), **kwargs
    )


def reason(q, req_id):
    return SHED_REASONS[q.requests.shed[req_id]]


def n_shed(q):
    """Requests the scheduler shed: the table's rows with a shed code."""
    return int((q.requests.shed != 0).sum())


class TestAdmissionControl:
    """A lone tenant at the depth cap: plain shed-at-the-door."""

    def test_push_beyond_limit_sheds(self):
        q = scheduler(n=3, max_depth=2)
        assert q.push(0) is None and q.push(1) is None
        assert q.push(2) == 2
        assert reason(q, 2) == "capacity"
        assert n_shed(q) == 1
        assert q.depth == 2

    def test_draining_reopens_admission(self):
        q = scheduler(n=3, max_depth=1)
        q.push(0)
        assert q.push(1) is not None
        q.pop_batch(1)
        assert q.push(2) is None
        assert n_shed(q) == 1

    def test_unbounded_by_default(self):
        q = scheduler(n=500)
        for i in range(500):
            assert q.push(i) is None
        assert n_shed(q) == 0

    def test_limit_validated(self):
        with pytest.raises(ConfigurationError, match="max_depth"):
            scheduler(max_depth=0)


class TestVersionPinning:
    def vscheduler(self, versions):
        return scheduler([("a", 0, v) for v in versions])

    def test_pop_batch_stops_at_version_boundary(self):
        q = self.vscheduler([1, 1, 1, 2, 2])
        for i in range(5):
            q.push(i)
        assert q.pop_batch(8) == [0, 1, 2]
        assert q.pop_batch(8) == [3, 4]

    def test_boundary_respects_arrival_order(self):
        """Interleaved versions split into arrival-ordered uniform runs."""
        q = self.vscheduler([1, 2, 1])
        for i in range(3):
            q.push(i)
        assert [q.pop_batch(8) for _ in range(3)] == [[0], [1], [2]]


class TestTenantScheduler:
    def test_single_tenant_fifo_matches_request_queue(self):
        """One tenant, one class: the scheduler degenerates to a FIFO."""
        q = scheduler(n=5)
        for i in range(5):
            assert q.push(i) is None
        assert q.pop_batch(3) == [0, 1, 2]
        assert q.pop_batch(10) == [3, 4]

    def test_config_validated(self):
        with pytest.raises(ConfigurationError):
            scheduler(n_priority_classes=0)
        with pytest.raises(ConfigurationError):
            scheduler(max_depth=0)
        with pytest.raises(ConfigurationError):
            scheduler(admission_utilization=1.5)
        with pytest.raises(ConfigurationError):
            scheduler(n_devices=0)

    def test_rejects_out_of_range_class(self):
        """The class range is checked once, when the request table is
        built: neither ``admit``'s bulk prefix nor ``push`` checks it, and
        no scheduler exists yet to queue anything."""
        for bad in (-1, 2):
            with pytest.raises(ConfigurationError, match="priority classes"):
                scheduler([("a", 0, 1), ("a", bad, 1)], n_priority_classes=2)

    def test_strict_priority_across_tiers(self):
        q = scheduler(
            [("a", 1, 1), ("a", 0, 1), ("a", 1, 1)], n_priority_classes=2
        )
        for i in range(3):
            q.push(i)
        assert q.next_class() == 0
        assert q.pop_batch(8) == [1]
        assert q.next_class() == 1
        assert q.pop_batch(8) == [0, 2]

    def test_batch_never_mixes_classes_or_versions(self):
        q = scheduler(
            [("a", 0, 1), ("a", 0, 2), ("a", 1, 1)], n_priority_classes=2
        )
        for i in range(3):
            q.push(i)
        assert q.pop_batch(8) == [0]
        assert q.pop_batch(8) == [1]
        assert q.pop_batch(8) == [2]

    def test_batch_mixes_tenants_within_class(self):
        q = scheduler([("a", 0, 1), ("b", 0, 1)])
        q.push(0)
        q.push(1)
        assert sorted(q.pop_batch(8)) == [0, 1]

    def test_capacity_shed_at_door_for_lone_tenant(self):
        """A single tenant at capacity keeps plain-FIFO semantics:
        the newest arrival is the one shed."""
        q = scheduler(n=3, max_depth=2)
        assert q.push(0) is None
        assert q.push(1) is None
        assert q.push(2) == 2
        assert reason(q, 2) == "capacity"
        assert n_shed(q) == 1
        assert q.depth == 2

    def test_higher_priority_displaces_lower(self):
        q = scheduler(
            [("a", 1, 1), ("a", 1, 1), ("a", 0, 1)],
            n_priority_classes=2, max_depth=2,
        )
        q.push(0)
        q.push(1)
        assert q.push(2) == 1  # newest request of the worst tier
        assert reason(q, 1) == "displaced"
        assert q.depth == 2
        assert q.pop_batch(8) == [2]
        assert q.pop_batch(8) == [0]

    def test_same_class_displaces_only_deeper_tenant(self):
        q = scheduler(
            [("hog", 0, 1), ("hog", 0, 1), ("light", 0, 1), ("light", 0, 1),
             ("light", 0, 1)],
            max_depth=3,
        )
        for i in range(3):
            q.push(i)
        assert q.push(3) == 1  # the hog's newest request
        # "light" is now the deepest tenant (2 vs 1): its next arrival
        # has nobody strictly deeper to displace and sheds at the door.
        assert q.push(4) == 4
        assert reason(q, 4) == "capacity"

    def test_utilization_gate_spares_class_zero(self):
        q = scheduler(
            [("a", 1, 1), ("a", 0, 1)],
            n_priority_classes=2, admission_utilization=0.5, n_devices=1,
        )
        q.observe_busy(0.9)  # utilization 0.9 at now=1.0
        assert q.push(0, now=1.0) == 0
        assert reason(q, 0) == "utilization"
        assert q.push(1, now=1.0) is None
        assert n_shed(q) == 1

    def test_round_robin_alternates_tenants(self):
        q = scheduler([("a", 0, 1)] * 6 + [("b", 0, 1)] * 2)
        for i in range(8):
            q.push(i)
        # One request a visit, "a" (first to queue) first; "b" drains out of
        # the rotation and "a" takes the rest.
        assert q.pop_batch(5) == [0, 6, 1, 7, 2]
        assert q.pop_batch(5) == [3, 4, 5]

    def test_version_boundary_keeps_the_turn(self):
        """A batch cut at a version boundary does not rotate: the tenant
        whose head is the newer version opens the next batch."""
        q = scheduler([("a", 0, 1), ("b", 0, 2), ("a", 0, 2)])
        for i in range(3):
            q.push(i)
        assert q.pop_batch(8) == [0]
        assert q.pop_batch(8) == [1, 2]

    def test_depth_accounting_and_high_water(self):
        q = scheduler(
            [("a", i % 2, 1) for i in range(4)], n_priority_classes=2
        )
        for i in range(4):
            q.push(i)
        assert q.depth == 4
        assert [tier.depth for tier in q._tiers] == [2, 2]
        q.pop_batch(2)
        assert q.depth == 2
        assert q.max_depth == 4

    def test_pop_from_empty_is_empty(self):
        assert scheduler().pop_batch(8) == []
        assert scheduler().next_class() is None

    def test_pop_batch_validates_size(self):
        with pytest.raises(ConfigurationError):
            scheduler().pop_batch(0)


class TestAdaptiveBatchSizer:
    def test_defaults_start_at_b_min(self):
        sizer = AdaptiveBatchSizer()
        assert sizer.cap == B_MIN

    @pytest.mark.parametrize("kwargs", [
        dict(target_latency_s=0.0), dict(target_latency_s=-1e-3),
        dict(target_latency_s=float("inf")),
        dict(target_latency_s=float("nan")),
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveBatchSizer(**kwargs)

    def test_fast_batches_grow_the_cap(self):
        sizer = AdaptiveBatchSizer(target_latency_s=1e-3)
        before = sizer.cap
        for _ in range(6):
            sizer.observe(sizer.cap, 1e-4)  # 10x under the SLO
        assert sizer.cap > before

    def test_slow_batches_shrink_the_cap(self):
        sizer = AdaptiveBatchSizer(target_latency_s=1e-3)
        for _ in range(12):
            sizer.observe(sizer.cap, 1e-4)  # grow first
        grown = sizer.cap
        assert grown >= 64
        for _ in range(6):
            sizer.observe(sizer.cap, 5e-3)  # 5x over the SLO
        assert sizer.cap < grown

    def test_on_target_is_a_fixed_point(self):
        sizer = AdaptiveBatchSizer(target_latency_s=1e-3)
        for _ in range(8):
            sizer.observe(sizer.cap, 5e-4)
        settled = sizer.cap
        assert settled > B_MIN
        for _ in range(5):
            assert sizer.observe(sizer.cap, 1e-3) == settled

    def test_clamped_to_bounds(self):
        sizer = AdaptiveBatchSizer(target_latency_s=1e-3)
        for _ in range(50):
            sizer.observe(sizer.cap, 1e-6)
        assert sizer.cap == B_MAX
        for _ in range(50):
            sizer.observe(sizer.cap, 1.0)
        assert sizer.cap == B_MIN

    def test_sub_integer_progress_accumulates(self):
        """Small nudges that round to no change must still compound."""
        sizer = AdaptiveBatchSizer(target_latency_s=1e-3)
        # 2% under the SLO: a 1% step per observation, so the cap of 1
        # rounds back to 1 for dozens of observations before it moves.
        caps = [sizer.observe(sizer.cap, 0.98e-3) for _ in range(60)]
        assert caps[:40] == [B_MIN] * 40
        assert max(caps) > B_MIN

    def test_converges_to_service_model(self):
        """Against service = fixed + per_item * b, the cap settles where the
        batch meets the SLO — the amortization equilibrium."""
        fixed, per_item, slo = 1e-4, 1e-5, 1e-3
        sizer = AdaptiveBatchSizer(target_latency_s=slo)
        for _ in range(200):
            b = sizer.cap
            sizer.observe(b, fixed + per_item * b)
        expected = (slo - fixed) / per_item  # 90
        assert abs(sizer.cap - expected) / expected < 0.15

    def test_observe_validates_inputs(self):
        sizer = AdaptiveBatchSizer()
        with pytest.raises(ConfigurationError):
            sizer.observe(0, 1e-3)
        with pytest.raises(ConfigurationError):
            sizer.observe(1, -1.0)
