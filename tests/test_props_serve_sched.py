"""Property-based tests (hypothesis) for the multi-tenant scheduler.

Invariants under test, over randomized arrival/priority/op sequences
(derandomized: the suite runs the same example budget with the same seed
on every machine, so CI and local runs agree):

- **Work conservation** — ``pop_batch`` never returns empty while work
  is queued, and a full drain terminates in at most one pop per admitted
  request.
- **Request conservation** — every push is accounted for exactly once:
  admitted = popped + still-queued + displaced; the rows with a shed
  code are exactly the door-sheds and the displacements.
- **Batch homogeneity** — a popped batch never mixes priority classes or
  model versions and never exceeds the requested cap; its class is the
  most important class queued at pop time (strict priority).
- **Shed ordering** — a capacity shed or displacement never removes work
  more important than what stays queued: victims come from the worst
  populated tier, and the utilization gate is monotone (a less important
  class always sheds at a lower utilization), with class 0 exempt.
- **Per-class batch caps** — ``AdaptiveBatchSizer`` stays inside
  ``[B_MIN, B_MAX]`` under arbitrary observation streams.
- **Version pinning** — ``mis_versioned == 0`` across hot-swaps under
  multi-tenant load (seeded end-to-end run).

``tests/test_serve_tenants.py`` holds the scenario-level acceptance
tests (noisy neighbor, shed accounting, deterministic replay); this file
pins the scheduler's algebra.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import AdaptiveBatchSizer, TenantScheduler
from repro.serve.queue import B_MAX, B_MIN
from repro.telemetry.events import SHED_REASONS
from tests.reference import request_table

N_CLASSES = 3
TENANTS = ("a", "b", "c", "d")

# One op: ("push", tenant_idx, priority_class, version) or ("pop", cap).
ops_seqs = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(min_value=0, max_value=len(TENANTS) - 1),
            st.integers(min_value=0, max_value=N_CLASSES - 1),
            st.integers(min_value=1, max_value=2),
        ),
        st.tuples(
            st.just("pop"),
            st.integers(min_value=1, max_value=8),
        ),
    ),
    min_size=1, max_size=120,
)

depths = st.integers(min_value=2, max_value=24)


def fresh(pushes=(), max_depth=None, admission_utilization=None):
    """A scheduler over one request per ``(tenant_idx, class, version)``."""
    table = request_table(
        [TENANTS[t] for t, _, _ in pushes], [p for _, p, _ in pushes],
        [v for _, _, v in pushes], N_CLASSES,
    )
    return TenantScheduler(
        table, n_priority_classes=N_CLASSES, max_depth=max_depth,
        admission_utilization=admission_utilization, n_devices=2,
    )


def queued_classes(scheduler):
    return [
        p for p in range(N_CLASSES) if scheduler._tiers[p].depth > 0
    ]


def drive(ops, max_depth):
    """Replay an op sequence, the n-th push being request id n; returns the
    scheduler, the (admitted, popped, displaced, door_shed) id lists and
    per-batch metadata."""
    scheduler = fresh([op[1:] for op in ops if op[0] == "push"], max_depth)
    admitted, popped, displaced, door_shed, batches = [], [], [], [], []
    req_id = 0
    for i, op in enumerate(ops):
        if op[0] == "push":
            worst_before = max(queued_classes(scheduler), default=None)
            shed = scheduler.push(req_id, now=float(i))
            if shed is None:
                admitted.append(req_id)
            elif shed == req_id:
                door_shed.append((req_id, worst_before))
            else:
                admitted.append(req_id)
                displaced.append((shed, req_id))
            req_id += 1
        else:
            classes_before = queued_classes(scheduler)
            batch = scheduler.pop_batch(op[1])
            popped.extend(batch)
            batches.append((batch, op[1], classes_before))
    return scheduler, admitted, popped, displaced, door_shed, batches


class TestSchedulerAlgebra:
    @given(ops_seqs, depths)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_request_conservation(self, ops, depth):
        scheduler, admitted, popped, displaced, door_shed, _ = drive(
            ops, depth
        )
        evicted = [victim for victim, _ in displaced]
        assert len(admitted) == len(popped) + scheduler.depth + len(evicted)
        # The shed column holds exactly the door sheds and the evictions.
        shed_rows = set(np.flatnonzero(scheduler.requests.shed).tolist())
        assert shed_rows == {i for i, _ in door_shed} | set(evicted)
        assert len(shed_rows) == len(door_shed) + len(evicted)
        # No request is both popped and evicted, and none is popped twice.
        assert len(set(popped)) == len(popped)
        assert not set(popped) & set(evicted)

    @given(ops_seqs, depths)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_work_conservation_and_finite_drain(self, ops, depth):
        scheduler, admitted, popped, displaced, _, batches = drive(
            ops, depth
        )
        for batch, _, classes_before in batches:
            if classes_before:
                assert batch, "pop_batch returned empty with work queued"
        # Drain: one pop per remaining request is always enough.
        remaining = scheduler.depth
        drained = []
        for _ in range(remaining):
            if scheduler.depth == 0:
                break
            batch = scheduler.pop_batch(4)
            assert batch
            drained.extend(batch)
        assert scheduler.depth == 0
        # Every admitted-and-never-evicted request came out exactly once.
        evicted = {victim for victim, _ in displaced}
        assert sorted(popped + drained) == sorted(
            r for r in admitted if r not in evicted
        )

    @given(ops_seqs, depths)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_batches_homogeneous_and_strict_priority(self, ops, depth):
        scheduler, _, _, _, _, batches = drive(ops, depth)
        table = scheduler.requests
        for batch, cap, classes_before in batches:
            assert len(batch) <= cap
            if not batch:
                continue
            assert len({table.priority[r] for r in batch}) == 1
            assert len({table.version[r] for r in batch}) == 1
            # Strict priority: the batch drains the most important
            # populated tier.
            assert table.priority[batch[0]] == min(classes_before)

    @given(ops_seqs, depths)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_shed_ordering_by_priority(self, ops, depth):
        scheduler, _, _, displaced, door_shed, _ = drive(ops, depth)
        table = scheduler.requests
        for request, worst_before in door_shed:
            # Shed at the door only when nothing queued is less important.
            assert worst_before is not None
            assert table.priority[request] >= worst_before
            assert SHED_REASONS[table.shed[request]] == "capacity"
        for victim, incoming in displaced:
            assert SHED_REASONS[table.shed[victim]] == "displaced"
            assert table.priority[victim] >= table.priority[incoming]

    @given(
        st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_utilization_gate_monotone(self, threshold, busy_frac):
        # Request p - 1 is tenant "a"'s arrival in class p.
        scheduler = fresh(
            [(0, p, 1) for p in range(1, N_CLASSES)],
            admission_utilization=threshold,
        )
        # Two devices, clock at 1.0 -> utilization == busy_frac.
        scheduler.observe_busy(2.0 * busy_frac)
        gates = [scheduler.shed_gate(p) for p in range(N_CLASSES)]
        assert gates[0] is None  # class 0 is never utilization-shed
        # Less important classes shed at lower utilization.
        for higher, lower in zip(gates[1:], gates[2:]):
            assert higher >= lower
        for p, gate in enumerate(gates[1:], start=1):
            assert gate >= threshold
            shed = scheduler.push(p - 1, now=1.0)
            if scheduler.utilization(1.0) >= gate:
                assert shed == p - 1
                assert SHED_REASONS[scheduler.requests.shed[p - 1]] == (
                    "utilization"
                )
            else:
                assert shed is None


class TestSizerClampProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=256),
                st.floats(
                    min_value=1e-7, max_value=1.0, allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_cap_always_within_bounds(self, observations):
        sizer = AdaptiveBatchSizer(target_latency_s=1e-3)
        assert sizer.cap == B_MIN
        for batch_size, service_s in observations:
            cap = sizer.observe(batch_size, service_s)
            assert B_MIN <= cap <= B_MAX
            assert cap == sizer.cap


class TestWeightedFairness:
    def test_equal_weights_drain_evenly(self):
        """Every tenant weighs the same: same-class backlogged tenants take
        turns, one request a visit, whatever the batch size."""
        scheduler = fresh([(i % 3, 0, 1) for i in range(300)])
        for i in range(300):
            scheduler.push(i)
        counts = dict.fromkeys(TENANTS[:3], 0)
        for _ in range(30):
            for request in scheduler.pop_batch(4):
                counts[TENANTS[request % 3]] += 1
        assert counts == dict.fromkeys(TENANTS[:3], 40)


class TestVersionPinningUnderTenantLoad:
    def test_mis_versioned_zero_across_swaps(self, micro_task, tmp_path):
        """Seeded end-to-end run: hot-swaps + multi-tenant scheduling
        must never score a request against the wrong version."""
        from repro.api import make_engine
        from repro.serve import (
            LoadSpec,
            ModelSnapshot,
            SnapshotStore,
            generate_arrivals,
        )
        from repro.sparse.mlp import MLPArchitecture, SparseMLP

        arch = MLPArchitecture(
            micro_task.n_features, micro_task.n_labels, hidden=(32,)
        )
        store = SnapshotStore(tmp_path / "store")
        for seed, t_pub in ((31, 0.0), (32, 0.0015), (33, 0.003)):
            store.publish(
                ModelSnapshot(
                    arch=arch, state=SparseMLP(arch).init_state(seed=seed),
                    meta={"dataset": "micro"},
                ),
                published_s=t_pub,
            )
        engine = make_engine(
            store, mode="adaptive", n_gpus=2,
            class_slo_ms={0: 2.0, 1: 2.0, 2: 2.0}, max_queue_depth=128,
        )
        n = 400
        arrivals = generate_arrivals(
            LoadSpec(n_requests=n, rate_rps=n / 0.006, seed=11)
        )
        tenants = np.array(
            [TENANTS[i % 3] for i in range(n)], dtype=object
        )
        classes = (np.arange(n) % 3).astype(np.int64)
        result = engine.serve(
            micro_task.test.X, arrivals, k=5,
            tenants=tenants, priority_classes=classes,
        )
        assert result.n_swaps >= 1
        assert result.mis_versioned == 0
        table = result.requests
        served = ~np.isnan(table.done)
        assert served.any()
        np.testing.assert_array_equal(
            table.served_version[served], np.array(table.version)[served]
        )
