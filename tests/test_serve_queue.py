"""Tests for repro.serve.queue — the multi-tenant priority + round-robin
scheduler (and its single-tenant FIFO degenerate case) and the adaptive
batch sizer."""

import pytest

from repro.exceptions import ConfigurationError
from repro.serve.queue import (
    B_MAX,
    B_MIN,
    AdaptiveBatchSizer,
    Request,
    TenantScheduler,
)


def req(i, t=0.0):
    return Request(req_id=i, row=i, t_arrival=t)


def treq(i, tenant="a", cls=0, version=1, t=0.0):
    return Request(
        req_id=i, row=i, t_arrival=t, version=version,
        tenant=tenant, priority_class=cls,
    )


class TestAdmissionControl:
    """A lone tenant at the depth cap: plain shed-at-the-door."""

    def test_push_beyond_limit_sheds(self):
        q = TenantScheduler(max_depth=2)
        assert q.push(req(0)) is None and q.push(req(1)) is None
        rejected = req(2)
        assert q.push(rejected) is rejected
        assert rejected.shed is True
        assert q.n_shed == 1
        assert q.depth == 2

    def test_draining_reopens_admission(self):
        q = TenantScheduler(max_depth=1)
        q.push(req(0))
        assert q.push(req(1)) is not None
        q.pop_batch(1)
        assert q.push(req(2)) is None
        assert q.n_shed == 1

    def test_unbounded_by_default(self):
        q = TenantScheduler()
        for i in range(500):
            assert q.push(req(i)) is None
        assert q.n_shed == 0

    def test_limit_validated(self):
        with pytest.raises(ConfigurationError, match="max_depth"):
            TenantScheduler(max_depth=0)


class TestVersionPinning:
    def vreq(self, i, version):
        r = req(i)
        r.version = version
        return r

    def test_pop_batch_stops_at_version_boundary(self):
        q = TenantScheduler()
        for i, v in enumerate([1, 1, 1, 2, 2]):
            q.push(self.vreq(i, v))
        first = q.pop_batch(8)
        assert [r.req_id for r in first] == [0, 1, 2]
        assert {r.version for r in first} == {1}
        second = q.pop_batch(8)
        assert [r.req_id for r in second] == [3, 4]
        assert {r.version for r in second} == {2}

    def test_boundary_respects_arrival_order(self):
        """Interleaved versions split into arrival-ordered uniform runs."""
        q = TenantScheduler()
        for i, v in enumerate([1, 2, 1]):
            q.push(self.vreq(i, v))
        batches = [q.pop_batch(8) for _ in range(3)]
        assert [[r.req_id for r in b] for b in batches] == [[0], [1], [2]]


class TestTenantScheduler:
    def test_single_tenant_fifo_matches_request_queue(self):
        """One tenant, one class: the scheduler degenerates to a FIFO."""
        scheduler = TenantScheduler()
        for i in range(5):
            assert scheduler.push(treq(i)) is None
        assert [r.req_id for r in scheduler.pop_batch(3)] == [0, 1, 2]
        assert [r.req_id for r in scheduler.pop_batch(10)] == [3, 4]

    def test_config_validated(self):
        with pytest.raises(ConfigurationError):
            TenantScheduler(n_priority_classes=0)
        with pytest.raises(ConfigurationError):
            TenantScheduler(max_depth=0)
        with pytest.raises(ConfigurationError):
            TenantScheduler(admission_utilization=1.5)
        with pytest.raises(ConfigurationError):
            TenantScheduler(n_devices=0)

    def test_rejects_out_of_range_class(self):
        scheduler = TenantScheduler(n_priority_classes=2)
        with pytest.raises(ConfigurationError, match="priority_class"):
            scheduler.push(treq(0, cls=2))

    def test_strict_priority_across_tiers(self):
        scheduler = TenantScheduler(n_priority_classes=2)
        scheduler.push(treq(0, cls=1))
        scheduler.push(treq(1, cls=0))
        scheduler.push(treq(2, cls=1))
        assert scheduler.next_class() == 0
        assert [r.req_id for r in scheduler.pop_batch(8)] == [1]
        assert scheduler.next_class() == 1
        assert [r.req_id for r in scheduler.pop_batch(8)] == [0, 2]

    def test_batch_never_mixes_classes_or_versions(self):
        scheduler = TenantScheduler(n_priority_classes=2)
        scheduler.push(treq(0, cls=0, version=1))
        scheduler.push(treq(1, cls=0, version=2))
        scheduler.push(treq(2, cls=1, version=1))
        assert [r.req_id for r in scheduler.pop_batch(8)] == [0]
        assert [r.req_id for r in scheduler.pop_batch(8)] == [1]
        assert [r.req_id for r in scheduler.pop_batch(8)] == [2]

    def test_batch_mixes_tenants_within_class(self):
        scheduler = TenantScheduler()
        scheduler.push(treq(0, tenant="a"))
        scheduler.push(treq(1, tenant="b"))
        batch = scheduler.pop_batch(8)
        assert {r.tenant for r in batch} == {"a", "b"}

    def test_capacity_shed_at_door_for_lone_tenant(self):
        """A single tenant at capacity keeps plain-FIFO semantics:
        the newest arrival is the one shed."""
        scheduler = TenantScheduler(max_depth=2)
        assert scheduler.push(treq(0)) is None
        assert scheduler.push(treq(1)) is None
        rejected = treq(2)
        assert scheduler.push(rejected) is rejected
        assert rejected.shed and rejected.shed_reason == "capacity"
        assert scheduler.n_shed == 1
        assert scheduler.shed_by_tenant == {"a": 1}
        assert scheduler.depth == 2

    def test_higher_priority_displaces_lower(self):
        scheduler = TenantScheduler(n_priority_classes=2, max_depth=2)
        low0, low1 = treq(0, cls=1), treq(1, cls=1)
        scheduler.push(low0)
        scheduler.push(low1)
        high = treq(2, cls=0)
        victim = scheduler.push(high)
        assert victim is low1  # newest request of the worst tier
        assert victim.shed and victim.shed_reason == "displaced"
        assert scheduler.depth == 2
        assert [r.req_id for r in scheduler.pop_batch(8)] == [2]
        assert [r.req_id for r in scheduler.pop_batch(8)] == [0]

    def test_same_class_displaces_only_deeper_tenant(self):
        scheduler = TenantScheduler(max_depth=3)
        scheduler.push(treq(0, tenant="hog"))
        scheduler.push(treq(1, tenant="hog"))
        scheduler.push(treq(2, tenant="light"))
        arrival = treq(3, tenant="light")
        victim = scheduler.push(arrival)
        assert victim is not None and victim.tenant == "hog"
        assert victim.req_id == 1  # the hog's newest request
        # "light" is now the deepest tenant (2 vs 1): its next arrival
        # has nobody strictly deeper to displace and sheds at the door.
        rejected = treq(4, tenant="light")
        assert scheduler.push(rejected) is rejected
        assert rejected.shed_reason == "capacity"

    def test_utilization_gate_spares_class_zero(self):
        scheduler = TenantScheduler(
            n_priority_classes=2, admission_utilization=0.5, n_devices=1,
        )
        scheduler.observe_busy(0.9)  # utilization 0.9 at now=1.0
        shed = treq(0, cls=1, t=1.0)
        assert scheduler.push(shed, now=1.0) is shed
        assert shed.shed_reason == "utilization"
        kept = treq(1, cls=0, t=1.0)
        assert scheduler.push(kept, now=1.0) is None
        assert scheduler.shed_by_class == {1: 1}

    def test_round_robin_alternates_tenants(self):
        scheduler = TenantScheduler()
        for i in range(6):
            scheduler.push(treq(i, tenant="a"))
        for i in range(6, 8):
            scheduler.push(treq(i, tenant="b"))
        # One request a visit, "a" (first to queue) first; "b" drains out of
        # the rotation and "a" takes the rest.
        assert [r.req_id for r in scheduler.pop_batch(5)] == [0, 6, 1, 7, 2]
        assert [r.req_id for r in scheduler.pop_batch(5)] == [3, 4, 5]

    def test_version_boundary_keeps_the_turn(self):
        """A batch cut at a version boundary does not rotate: the tenant
        whose head is the newer version opens the next batch."""
        scheduler = TenantScheduler()
        scheduler.push(treq(0, tenant="a", version=1))
        scheduler.push(treq(1, tenant="b", version=2))
        scheduler.push(treq(2, tenant="a", version=2))
        assert [r.req_id for r in scheduler.pop_batch(8)] == [0]
        assert [r.req_id for r in scheduler.pop_batch(8)] == [1, 2]

    def test_depth_accounting_and_high_water(self):
        scheduler = TenantScheduler(n_priority_classes=2)
        for i in range(4):
            scheduler.push(treq(i, cls=i % 2))
        assert scheduler.depth == 4
        assert [tier.depth for tier in scheduler._tiers] == [2, 2]
        scheduler.pop_batch(2)
        assert scheduler.depth == 2
        assert scheduler.max_depth == 4
        assert len(scheduler) == 2

    def test_pop_from_empty_is_empty(self):
        assert TenantScheduler().pop_batch(8) == []
        assert TenantScheduler().next_class() is None

    def test_pop_batch_validates_size(self):
        with pytest.raises(ConfigurationError):
            TenantScheduler().pop_batch(0)


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
