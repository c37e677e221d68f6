"""Property-based tests (hypothesis) for the elastic membership subsystem.

Invariants under test, over arbitrary churn schedules (derandomized: the
same example budget with the same seed on every machine, so CI and local
runs agree):

- **Ordered delivery** — a :class:`TimelineCursor` yields events in
  timestamp order, exactly once, regardless of the polling cadence.
- **Exactly-once accounting** — driving :class:`ClusterMembership` and
  an :class:`UpdateLedger` through an arbitrary schedule, every offered
  update resolves merged-or-discarded exactly once and the ledger drains.
- **Never-empty active set** — the ``MIN_ACTIVE`` guard holds for any
  schedule: the active set never empties while work is in flight, and
  the suppression count explains every undelivered departure.

``tests/test_elastic_membership.py`` holds the scenario-level unit
tests; this file pins the state machine's algebra.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elastic import (
    ClusterMembership,
    MembershipEvent,
    MembershipTimeline,
    UpdateLedger,
)
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams

N_DEVICES = 3

# One raw event: (t, kind_idx, device_id, factor). Device ids range past
# the installed count so joins provision and fails/leaves can miss.
KINDS = ("join", "leave", "fail", "throttle", "recover")
raw_events = st.tuples(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
              allow_infinity=False),
    st.integers(min_value=0, max_value=len(KINDS) - 1),
    st.integers(min_value=0, max_value=N_DEVICES + 2),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False,
              allow_infinity=False),
)
schedules = st.lists(raw_events, max_size=24)
# Strictly positive gaps between polls, so poll times advance.
poll_gaps = st.lists(
    st.floats(min_value=0.01, max_value=4.0, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=16,
)


def build_timeline(raw):
    events = []
    for t, kind_idx, device_id, factor in raw:
        kind = KINDS[kind_idx]
        events.append(MembershipEvent(
            t, kind, device_id,
            factor=factor if kind == "throttle" else None,
        ))
    return MembershipTimeline(events)


def fresh_membership(raw, **kwargs):
    server = make_server(
        N_DEVICES, cost_params=GpuCostParams.tiny_model_profile(), seed=0
    )
    return ClusterMembership(server, build_timeline(raw), **kwargs)


class TestOrderedDelivery:
    @given(schedules, poll_gaps)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_cursor_delivers_in_timestamp_order_exactly_once(
        self, raw, gaps
    ):
        timeline = build_timeline(raw)
        cursor = timeline.cursor()
        seen = []
        t = 0.0
        for gap in gaps:
            t += gap
            seen.extend(cursor.due(t))
        seen.extend(cursor.due(1e9))
        # exactly once: everything delivered, nothing left or duplicated
        assert cursor.remaining == 0
        assert len(seen) == len(timeline)
        # timestamp order, ties in schedule order (stable)
        assert [e.t for e in seen] == sorted(e.t for e in timeline.events)
        assert seen == list(timeline.events)

    @given(schedules)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_peek_t_is_the_next_delivery(self, raw):
        cursor = build_timeline(raw).cursor()
        while True:
            t_next = cursor.peek_t()
            if t_next is None:
                assert cursor.remaining == 0
                break
            assert cursor.due(t_next - 1e-9) == ()
            delivered = cursor.due(t_next)
            assert delivered and delivered[0].t == t_next


class TestExactlyOnceAccounting:
    @given(schedules, poll_gaps)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_every_offer_resolves_exactly_once(self, raw, gaps):
        """Simulate the trainer driver's offer/resolve loop over arbitrary
        churn: each poll window, every active device offers one update;
        devices that failed before the merge get discarded, the rest merge."""
        membership = fresh_membership(raw)
        ledger = UpdateLedger()
        n_offered = 0
        t = 0.0
        for gap in gaps:
            t += gap
            offers = {
                device_id: ledger.offer(device_id, 1)
                for device_id in membership.active_ids
            }
            n_offered += len(offers)
            membership.poll(t)
            failed, _, _ = membership.take_sync()
            for device_id, token in offers.items():
                ledger.resolve(token, merged=device_id not in failed)
        membership.poll(1e9)
        ledger.assert_drained()  # raises if any offer is unresolved
        assert ledger.n_merged + ledger.n_discarded == n_offered
        assert ledger.updates_merged + ledger.updates_discarded == n_offered


class TestNeverEmptyActiveSet:
    @given(schedules, poll_gaps)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_active_set_never_empties(self, raw, gaps):
        membership = fresh_membership(raw)
        t = 0.0
        for gap in gaps:
            t += gap
            membership.poll(t)
            assert membership.n_active >= 1
        membership.poll(1e9)
        assert membership.n_active >= 1

    @given(schedules)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_event_conservation(self, raw):
        """Every timeline event is accounted: applied + suppressed ==
        delivered, and the final active set follows the applied deltas."""
        membership = fresh_membership(raw)
        membership.poll(1e9)
        summary = membership.summary()
        assert summary["n_applied"] + summary["n_suppressed"] == len(raw)
        delta = 0
        for event in membership.applied_events:
            if not event.applied:
                continue
            if event.kind == "join":
                delta += 1
            elif event.kind in ("fail", "leave"):
                delta -= 1
        assert summary["final_devices"] == N_DEVICES + delta
